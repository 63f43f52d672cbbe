#include "ad/index_map.hpp"

#include <utility>

#include "util/check.hpp"

namespace gns::ad {

IndexMap::IndexMap(std::vector<int> index, int num_buckets) {
  GNS_CHECK_MSG(num_buckets > 0, "IndexMap: num_buckets must be positive");
  auto data = std::make_shared<Data>();
  data->buckets = num_buckets;
  data->index = std::move(index);
  const int e = static_cast<int>(data->index.size());

  // Counting sort of positions by bucket. The per-entry bounds check here
  // is the single validation pass the ops rely on.
  data->offsets.assign(static_cast<std::size_t>(num_buckets) + 1, 0);
  for (int i = 0; i < e; ++i) {
    const int b = data->index[static_cast<std::size_t>(i)];
    GNS_CHECK_MSG(b >= 0 && b < num_buckets, "IndexMap: index out of range");
    ++data->offsets[static_cast<std::size_t>(b) + 1];
  }
  for (int b = 0; b < num_buckets; ++b)
    data->offsets[static_cast<std::size_t>(b) + 1] +=
        data->offsets[static_cast<std::size_t>(b)];

  // Scatter positions in ascending i: within every bucket the positions
  // come out ascending, which is what makes per-bucket reductions
  // reproduce the serial accumulation order bit-for-bit.
  data->positions.resize(static_cast<std::size_t>(e));
  std::vector<int> cursor(data->offsets.begin(), data->offsets.end() - 1);
  for (int i = 0; i < e; ++i) {
    const int b = data->index[static_cast<std::size_t>(i)];
    data->positions[static_cast<std::size_t>(cursor[static_cast<std::size_t>(
        b)]++)] = i;
  }
  data_ = std::move(data);
}

int IndexMap::size() const {
  GNS_DCHECK(defined());
  return static_cast<int>(data_->index.size());
}

int IndexMap::num_buckets() const {
  GNS_DCHECK(defined());
  return data_->buckets;
}

const std::vector<int>& IndexMap::index() const {
  GNS_DCHECK(defined());
  return data_->index;
}

const int* IndexMap::offsets() const {
  GNS_DCHECK(defined());
  return data_->offsets.data();
}

const int* IndexMap::positions() const {
  GNS_DCHECK(defined());
  return data_->positions.data();
}

void IndexMap::dcheck_valid() const {
#ifndef NDEBUG
  GNS_DCHECK(defined());
  const int e = size();
  const int nb = num_buckets();
  GNS_DCHECK(static_cast<int>(data_->positions.size()) == e);
  GNS_DCHECK(data_->offsets.front() == 0 && data_->offsets.back() == e);
  for (int b = 0; b < nb; ++b) {
    GNS_DCHECK(data_->offsets[static_cast<std::size_t>(b)] <=
               data_->offsets[static_cast<std::size_t>(b) + 1]);
    for (int p = data_->offsets[static_cast<std::size_t>(b)];
         p < data_->offsets[static_cast<std::size_t>(b) + 1]; ++p) {
      const int i = data_->positions[static_cast<std::size_t>(p)];
      GNS_DCHECK(i >= 0 && i < e);
      GNS_DCHECK(data_->index[static_cast<std::size_t>(i)] == b);
    }
  }
#endif
}

}  // namespace gns::ad
