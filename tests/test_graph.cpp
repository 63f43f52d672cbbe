// Neighbor search: cell-list vs brute-force equivalence (property sweep),
// determinism, edge-list conventions.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/neighbor_search.hpp"
#include "util/rng.hpp"

namespace gns::graph {
namespace {

std::vector<Vec2> random_points(int n, Rng& rng, double lo = 0.0,
                                double hi = 1.0) {
  std::vector<Vec2> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(lo, hi);
    p.y = rng.uniform(lo, hi);
  }
  return pts;
}

/// Radius graph from a CellList over the unit square, where random_points
/// puts its points by default.
Graph cell_graph(const std::vector<Vec2>& pts, double radius,
                 bool include_self = false) {
  CellList cells(radius, {0.0, 0.0}, {1.0, 1.0});
  cells.build(pts);
  return cells.radius_graph(pts, include_self);
}

std::vector<std::pair<int, int>> edge_set(const Graph& g) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e)
    edges.emplace_back(g.senders[e], g.receivers[e]);
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(Graph, AddEdgeAndDegree) {
  Graph g;
  g.num_nodes = 3;
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.num_edges(), 3);
  const auto deg = g.in_degree();
  EXPECT_EQ(deg[0], 1);
  EXPECT_EQ(deg[1], 2);
  EXPECT_EQ(deg[2], 0);
}

struct SweepCase {
  int n;
  double radius;
  std::uint64_t seed;
};

class RadiusGraphSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RadiusGraphSweep, MatchesBruteForce) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const auto pts = random_points(param.n, rng);
  const Graph fast = cell_graph(pts, param.radius);
  const Graph slow = brute_force_radius_graph(pts, param.radius);
  EXPECT_EQ(edge_set(fast), edge_set(slow));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadiusGraphSweep,
    ::testing::Values(SweepCase{2, 0.1, 1}, SweepCase{10, 0.05, 2},
                      SweepCase{50, 0.15, 3}, SweepCase{200, 0.08, 4},
                      SweepCase{200, 0.3, 5}, SweepCase{300, 0.02, 6},
                      SweepCase{100, 1.5, 7},  // radius > domain: complete
                      SweepCase{64, 0.25, 8}));

TEST(RadiusGraph, NoSelfEdgesByDefault) {
  Rng rng(9);
  const auto pts = random_points(50, rng);
  const Graph g = cell_graph(pts, 0.2);
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_NE(g.senders[e], g.receivers[e]);
  }
}

TEST(RadiusGraph, SelfEdgesWhenRequested) {
  Rng rng(10);
  const auto pts = random_points(20, rng);
  const Graph g = cell_graph(pts, 0.1, /*include_self=*/true);
  int self_count = 0;
  for (int e = 0; e < g.num_edges(); ++e)
    self_count += (g.senders[e] == g.receivers[e]);
  EXPECT_EQ(self_count, 20);
}

TEST(RadiusGraph, SymmetricPairs) {
  // Metric balls are symmetric: (i<-j) implies (j<-i).
  Rng rng(11);
  const auto pts = random_points(80, rng);
  const Graph g = cell_graph(pts, 0.12);
  auto edges = edge_set(g);
  for (const auto& [s, r] : edges) {
    EXPECT_TRUE(std::binary_search(edges.begin(), edges.end(),
                                   std::make_pair(r, s)));
  }
}

TEST(RadiusGraph, DeterministicOrdering) {
  Rng rng(12);
  const auto pts = random_points(100, rng);
  const Graph a = cell_graph(pts, 0.1);
  const Graph b = cell_graph(pts, 0.1);
  EXPECT_EQ(a.senders, b.senders);
  EXPECT_EQ(a.receivers, b.receivers);
}

TEST(RadiusGraph, EdgesSortedByReceiverThenSender) {
  // The documented layout: receivers grouped, senders ascending within —
  // segment_softmax and scatter depend only on grouping, but the order is
  // part of the determinism contract.
  Rng rng(13);
  const auto pts = random_points(60, rng);
  const Graph g = cell_graph(pts, 0.15);
  for (int e = 1; e < g.num_edges(); ++e) {
    const bool ordered =
        g.receivers[e - 1] < g.receivers[e] ||
        (g.receivers[e - 1] == g.receivers[e] &&
         g.senders[e - 1] < g.senders[e]);
    EXPECT_TRUE(ordered) << "edge " << e;
  }
}

TEST(RadiusGraph, ClampsOutOfDomainPoints) {
  // Points slightly outside the constructed domain must still be indexed.
  CellList cells(0.1, {0.0, 0.0}, {1.0, 1.0});
  std::vector<Vec2> pts = {{-0.02, 0.5}, {0.03, 0.5}, {1.05, 0.98}};
  cells.build(pts);
  const Graph g = cells.radius_graph(pts);
  const Graph ref = brute_force_radius_graph(pts, 0.1);
  EXPECT_EQ(edge_set(g), edge_set(ref));
}

TEST(RadiusGraph, FarOutOfDomainPointsStillCorrect) {
  // Particles far outside [domain_min, domain_max] clamp into boundary
  // cells; the distance test still runs, so the graph stays exact even
  // for badly escaped particles.
  CellList cells(0.15, {0.0, 0.0}, {1.0, 1.0});
  std::vector<Vec2> pts = {{-3.0, -3.0}, {-3.05, -3.1}, {-2.9, -3.0},
                           {4.0, 4.0},   {4.1, 4.05},   {0.5, 0.5},
                           {0.55, 0.5},  {-3.0, 4.0}};
  cells.build(pts);
  EXPECT_EQ(edge_set(cells.radius_graph(pts)),
            edge_set(brute_force_radius_graph(pts, 0.15)));

  // Mixed in/out of domain, denser sweep.
  Rng rng(21);
  auto mixed = random_points(60, rng, -0.5, 1.5);
  cells.build(mixed);
  EXPECT_EQ(edge_set(cells.radius_graph(mixed)),
            edge_set(brute_force_radius_graph(mixed, 0.15)));
}

TEST(RadiusGraph, EmptyPositionListGivesEmptyGraph) {
  const std::vector<Vec2> empty;
  const Graph g = cell_graph(empty, 0.1);
  EXPECT_EQ(g.num_nodes, 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(RadiusGraph, RadiusLargerThanDomain) {
  // Radius bigger than the whole domain: one cell, complete graph.
  CellList cells(5.0, {0.0, 0.0}, {1.0, 1.0});
  Rng rng(22);
  const auto pts = random_points(25, rng);
  cells.build(pts);
  const Graph g = cells.radius_graph(pts);
  EXPECT_EQ(g.num_edges(), 25 * 24);  // all ordered pairs
  EXPECT_EQ(edge_set(g), edge_set(brute_force_radius_graph(pts, 5.0)));
}

TEST(CellList, InvalidConstructionThrows) {
  EXPECT_THROW(CellList(0.0, {0, 0}, {1, 1}), CheckError);
  EXPECT_THROW(CellList(0.1, {1, 1}, {0, 0}), CheckError);
  // 1e7 x 1e7 cells: more than an int can count, so the constructor
  // refuses before build() would allocate the grid.
  EXPECT_THROW(CellList(1e-3, {0, 0}, {1e4, 1e4}), CheckError);
}

TEST(RadiusGraph, BoundaryDistanceExactlyRadiusIncluded) {
  std::vector<Vec2> pts = {{0.0, 0.0}, {0.1, 0.0}};
  const Graph g = cell_graph(pts, 0.1);
  EXPECT_EQ(g.num_edges(), 2);
}

}  // namespace
}  // namespace gns::graph
