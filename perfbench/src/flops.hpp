#pragma once

/// \file flops.hpp
/// Computed operation and byte counts. Nothing here is measured: flops and
/// bytes follow from the tensor shapes, counting each operand read and
/// each result written once (no cache effects). They are labelled
/// "computed" wherever they are reported.

#include "core/gns.hpp"
#include "mpm/solver.hpp"

namespace perfbench {

struct ForwardCost {
  double flops = 0.0;
  double bytes = 0.0;

  ForwardCost& operator+=(const ForwardCost& o) {
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
};

/// One GnsModel::forward over a graph of `nodes` nodes and `edges` edges:
/// every MLP (matmul, bias, ReLU, output layer norm), the per-round gathers,
/// concatenations, scatter-add and residual adds.
[[nodiscard]] ForwardCost forward_cost(const gns::core::GnsConfig& cfg,
                                       double nodes, double edges);

/// Bytes one MpmSolver::step moves: particle arrays read in P2G and read +
/// written in G2P, and the grid arrays cleared, scattered into, updated
/// and gathered from.
[[nodiscard]] double mpm_step_bytes(const gns::mpm::MpmSolver& solver);

}  // namespace perfbench
