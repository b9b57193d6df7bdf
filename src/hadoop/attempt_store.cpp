#include "hadoop/attempt_store.hpp"

#include <algorithm>
#include <utility>

namespace woha::hadoop {

std::size_t AttemptStore::row(std::size_t tracker) const {
  if ((tracker + 1) * width_ > records_.size()) {
    throw std::out_of_range("AttemptStore: unknown tracker");
  }
  return tracker * width_;
}

SlotRef AttemptStore::insert(const Attempt& a) {
  const bool map = a.type == SlotType::kMap;
  const std::size_t first = row(a.tracker) + (map ? 0 : map_slots_);
  for (std::size_t r = first; r < first + (map ? map_slots_ : width_ - map_slots_); ++r) {
    Record& rec = records_[r];
    if (rec.occupied) continue;
    rec = Record{a, rec.generation, true};
    return {static_cast<std::uint32_t>(r), rec.generation};
  }
  throw std::logic_error("AttemptStore::insert: every record of the slot type is taken");
}

std::vector<SlotRef> AttemptStore::collect(std::size_t first, std::size_t last,
                                           std::optional<std::uint32_t> workflow) const {
  std::vector<SlotRef> out;
  for (std::size_t r = first; r < last; ++r) {
    const Record& rec = records_[r];
    if (rec.occupied && (!workflow || rec.attempt.ref.workflow == *workflow)) {
      out.push_back({static_cast<std::uint32_t>(r), rec.generation});
    }
  }
  // Records are reused in any order; attempt ids give launch order.
  std::sort(out.begin(), out.end(), [this](SlotRef x, SlotRef y) {
    return std::pair(x.slot / width_, records_[x.slot].attempt.id) <
           std::pair(y.slot / width_, records_[y.slot].attempt.id);
  });
  return out;
}

}  // namespace woha::hadoop
