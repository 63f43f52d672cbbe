#pragma once

/// \file index_map.hpp
/// A validated, CSR-transposed row-index map for gather/scatter ops.
///
/// `gather_rows(v, senders)` and `scatter_add_rows(msg, receivers, n)` are
/// called every message round with the *same* index vector, and each call
/// used to (a) rescan the whole vector for bounds and (b) run its
/// cross-row reduction serially, because repeated indices make naive
/// parallel accumulation racy. IndexMap fixes both once at construction:
///
///  * **validation** happens exactly once — every entry is checked against
///    [0, num_buckets) and a CheckError is thrown on the first violation;
///    ops only re-verify under GNS_DCHECK in debug builds;
///  * the **CSR transpose** groups the positions of each bucket value:
///    `positions()[offsets()[b] .. offsets()[b+1])` lists, in ascending
///    order, every i with index()[i] == b. A reduction "for each bucket b:
///    for each position i of b (ascending): acc += row(i)" performs the
///    *identical* per-destination FP add sequence as the serial
///    loop "for i ascending: out[index[i]] += row(i)" — so the
///    per-destination parallelization is bitwise equal to the serial
///    reference and, because each destination is owned by one thread,
///    bitwise invariant in the thread count.
///
/// Copies are cheap (shared immutable state); ops capture the map by value
/// in their backward closures.

#include <memory>
#include <vector>

namespace gns::ad {

class IndexMap {
 public:
  /// Empty/undefined map; using it in an op is a programming error.
  IndexMap() = default;

  /// Validates `index` against [0, num_buckets) (throws util::CheckError
  /// on the first out-of-range entry) and builds the CSR transpose.
  IndexMap(std::vector<int> index, int num_buckets);

  [[nodiscard]] bool defined() const { return data_ != nullptr; }
  /// Number of entries (gather output rows / scatter input rows).
  [[nodiscard]] int size() const;
  /// Exclusive upper bound on index values (gather input rows / scatter
  /// output rows; graph num_nodes).
  [[nodiscard]] int num_buckets() const;
  /// The original index vector, in input order.
  [[nodiscard]] const std::vector<int>& index() const;
  /// CSR bucket offsets, length num_buckets()+1.
  [[nodiscard]] const int* offsets() const;
  /// Positions grouped by bucket, ascending within each bucket; length
  /// size().
  [[nodiscard]] const int* positions() const;

  /// Debug re-verification (bounds + CSR/index agreement). Compiled to a
  /// no-op in NDEBUG builds; ops call it so a corrupted map fails loudly
  /// under the sanitizer jobs.
  void dcheck_valid() const;

 private:
  struct Data {
    std::vector<int> index;
    std::vector<int> offsets;
    std::vector<int> positions;
    int buckets = 0;
  };
  std::shared_ptr<const Data> data_;
};

}  // namespace gns::ad
