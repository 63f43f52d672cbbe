#include "flops.hpp"

namespace perfbench {

namespace {

constexpr double kReal = sizeof(double);

/// One ad::Mlp over `rows` rows: hidden_layers Linear+ReLU layers of width
/// `hidden`, then a Linear to `out`, then (optionally) a layer norm.
ForwardCost mlp_cost(const gns::core::GnsConfig& cfg, double rows, double in,
                     double out, bool layer_norm) {
  ForwardCost c;
  double prev = in;
  for (int l = 0; l <= cfg.mlp_layers; ++l) {
    const bool hidden = l < cfg.mlp_layers;
    const double width = hidden ? cfg.mlp_hidden : out;
    c.flops += 2.0 * rows * prev * width + rows * width;  // matmul + bias
    if (hidden) c.flops += rows * width;                  // ReLU
    c.bytes += kReal * (rows * prev + prev * width + width + rows * width);
    prev = width;
  }
  if (layer_norm) {
    c.flops += 7.0 * rows * out;  // mean, variance, scale, shift
    c.bytes += kReal * 2.0 * rows * out;
  }
  return c;
}

}  // namespace

ForwardCost forward_cost(const gns::core::GnsConfig& cfg, double nodes,
                         double edges) {
  const double L = cfg.latent;
  ForwardCost c;
  c += mlp_cost(cfg, nodes, cfg.node_in, L, true);
  c += mlp_cost(cfg, edges, cfg.edge_in, L, true);
  for (int m = 0; m < cfg.message_passing_steps; ++m) {
    // gather senders + receivers, concat [e, vs, vr]
    c.bytes += kReal * (2.0 * edges * L * 2.0 + 3.0 * edges * L * 2.0);
    c += mlp_cost(cfg, edges, 3.0 * L, L, true);
    c.flops += edges * L;  // edge residual
    c.bytes += kReal * 3.0 * edges * L;
    c.flops += edges * L;  // scatter-add to receivers
    c.bytes += kReal * (edges * L + nodes * L);
    c.bytes += kReal * 2.0 * nodes * L * 2.0;  // concat [v, agg]
    c += mlp_cost(cfg, nodes, 2.0 * L, L, true);
    c.flops += nodes * L;  // node residual
    c.bytes += kReal * 3.0 * nodes * L;
  }
  c += mlp_cost(cfg, nodes, L, cfg.out_dim, false);
  return c;
}

double mpm_step_bytes(const gns::mpm::MpmSolver& solver) {
  const double np = solver.particles().size();
  const double nodes = solver.grid().num_nodes();
  // Particle: P2G reads position, velocity, mass, volume, stress (80 B);
  // G2P reads and writes position, velocity, volume, stress (2 x 72 B).
  const double particle = 80.0 + 144.0;
  // Node: clear mass/momentum/force (40 B), P2G writes them (40 B), the
  // velocity update reads them and writes velocity + old velocity (72 B),
  // G2P reads velocity + old velocity (32 B).
  const double node = 40.0 + 40.0 + 72.0 + 32.0;
  return np * particle + nodes * node;
}

}  // namespace perfbench
