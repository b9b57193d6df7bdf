// A table of records in recycled slots.
//
// The engine keeps its running attempts here. A record sits in a slot taken
// from a free list, and the next insert after an erase reuses the freed slot
// under a new generation, so the table's memory follows the number of live
// records, not the range of ids ever handed out. A SlotRef names a slot and
// the generation it was filled under; once that record is erased the ref
// misses, even after the slot holds another record, so a stale finish event
// or rival link can never reach the wrong attempt.
//
// Determinism: the free list is LIFO, so which slot a record gets is a pure
// function of the insert/erase sequence. The table imposes no iteration
// order of its own; the engine iterates attempts through its ordered
// indexes.
#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace woha {

/// Names one record of a SlotTable. Generations start at 1, so the default
/// ref names nothing.
struct SlotRef {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  explicit operator bool() const { return generation != 0; }
  auto operator<=>(const SlotRef&) const = default;
};

template <typename T>
class SlotTable {
 public:
  SlotRef insert(T value) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Entry& e = entries_[slot];
    e.value = std::move(value);
    ++live_;
    return {slot, e.generation};
  }

  /// The record `ref` names, or null once it was erased.
  [[nodiscard]] T* find(SlotRef ref) {
    if (ref.slot >= entries_.size()) return nullptr;
    Entry& e = entries_[ref.slot];
    return e.generation == ref.generation ? &e.value : nullptr;
  }
  [[nodiscard]] const T* find(SlotRef ref) const {
    return const_cast<SlotTable*>(this)->find(ref);
  }

  [[nodiscard]] T& at(SlotRef ref) {
    T* p = find(ref);
    if (!p) throw std::out_of_range("SlotTable: stale or unknown ref");
    return *p;
  }

  /// Remove the record `ref` names and return it. Its slot goes back on the
  /// free list under the next generation, which no ref holds yet.
  T take(SlotRef ref) {
    T* p = find(ref);
    if (!p) throw std::out_of_range("SlotTable: erase of a stale or unknown ref");
    T out = std::move(*p);
    ++entries_[ref.slot].generation;
    free_.push_back(ref.slot);
    --live_;
    return out;
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  /// Records the table has room for without growing (live + free slots
  /// included), for memory diagnostics.
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }

 private:
  struct Entry {
    T value{};
    std::uint32_t generation = 1;
  };

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;  ///< freed slots, reused last-in first-out
  std::size_t live_ = 0;
};

}  // namespace woha
