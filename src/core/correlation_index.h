// Correlation-id lookup for graph construction (§4.2.2, Figure 3).
//
// CUPTI links a launch API to the GPU activity it triggers through a
// correlation id; graph building and the layer map both need "the last event
// carrying id X among some class of events". This is that lookup as one flat
// array sorted by id: no allocation per event, and O(log n) per lookup
// whatever ids a hostile trace carries.
#ifndef SRC_CORE_CORRELATION_INDEX_H_
#define SRC_CORE_CORRELATION_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace daydream {

class CorrelationIndex {
 public:
  // (correlation id, event index) pairs.
  using Entry = std::pair<int64_t, size_t>;
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // Entries may come in any order; for an id listed more than once, the
  // largest event index wins.
  explicit CorrelationIndex(std::vector<Entry> entries) : entries_(std::move(entries)) {
    std::sort(entries_.begin(), entries_.end());
    // Sorted (id, index) pairs: the last entry of each id's run holds the
    // largest index.
    size_t kept = 0;
    for (const Entry& entry : entries_) {
      if (kept > 0 && entries_[kept - 1].first == entry.first) {
        entries_[kept - 1] = entry;
      } else {
        entries_[kept++] = entry;
      }
    }
    entries_.resize(kept);
  }

  // The event index recorded for `correlation_id`, or kNone.
  size_t Find(int64_t correlation_id) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), correlation_id,
        [](const Entry& entry, int64_t id) { return entry.first < id; });
    return it != entries_.end() && it->first == correlation_id ? it->second : kNone;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace daydream

#endif  // SRC_CORE_CORRELATION_INDEX_H_
