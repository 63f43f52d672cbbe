#pragma once

/// \file graph_index.hpp
/// Per-graph gather/scatter index maps, built once and reused.
///
/// A taped GNS forward runs gather_rows(senders), gather_rows(receivers)
/// and scatter_add_rows(receivers) in *every* message round (plus the
/// edge feature builder and, with attention, segment_softmax); the
/// untaped one reads the same index vectors and receiver CSR directly.
/// GraphIndex packages the two validated CSR-transposed ad::IndexMaps so
/// the index scan/validation and transpose happen once per graph instead
/// of once per op call; copies share the immutable maps.

#include "ad/index_map.hpp"
#include "graph/graph.hpp"

namespace gns::core {

struct GraphIndex {
  ad::IndexMap senders;
  ad::IndexMap receivers;

  GraphIndex() = default;
  explicit GraphIndex(const graph::Graph& g)
      : senders(g.senders, g.num_nodes),
        receivers(g.receivers, g.num_nodes) {}

  [[nodiscard]] bool defined() const {
    return senders.defined() && receivers.defined();
  }
};

}  // namespace gns::core
