// Id-indexed table that covers only the id span its owner has seen.
//
// The control plane keeps several per-node tables indexed directly by node
// id, so a probe is one array hit instead of a hash or tree walk. Sized to
// [0, max id], such a table wastes most of its memory whenever the owner
// sees only a slice of the id space: a zone shard of a block-partitioned
// tree sees one zone's ids [lo, hi], yet every id below lo would cost an
// entry too. IdTable stores just [begin_id(), end_id()) through an offset.
//
// Iterating ids from begin_id() to end_id() visits entries in ascending id
// order, exactly the order a table sized from 0 would, so sweeps that must
// run in id order (retries, heal emission, checkpoints) are unchanged.
#pragma once

#include <cstddef>
#include <vector>

namespace pcap::common {

template <typename T>
class IdTable {
 public:
  /// First covered id (0 for an empty table).
  [[nodiscard]] std::size_t begin_id() const { return base_; }
  /// One past the last covered id; begin_id() for an empty table.
  [[nodiscard]] std::size_t end_id() const { return base_ + entries_.size(); }

  /// Entry of a covered id (unchecked: begin_id() <= id < end_id()).
  [[nodiscard]] T& operator[](std::size_t id) { return entries_[id - base_]; }
  [[nodiscard]] const T& operator[](std::size_t id) const {
    return entries_[id - base_];
  }
  /// Entry of `id`, or nullptr when the id is not covered.
  [[nodiscard]] T* find(std::size_t id) {
    return covers(id) ? &entries_[id - base_] : nullptr;
  }
  [[nodiscard]] const T* find(std::size_t id) const {
    return covers(id) ? &entries_[id - base_] : nullptr;
  }

  /// Widens the span to include [lo, hi] (lo <= hi); new entries are
  /// value-initialised, existing ones keep their values. Growing the low
  /// end shifts the table, so owners that widen entry by entry should
  /// meet their ids in mostly ascending order — or cover the whole range
  /// up front.
  void cover(std::size_t lo, std::size_t hi) {
    if (entries_.empty()) {
      base_ = lo;
      entries_.assign(hi - lo + 1, T{});
      return;
    }
    if (hi >= end_id()) entries_.resize(hi - base_ + 1);
    if (lo < base_) {
      entries_.insert(entries_.begin(), base_ - lo, T{});
      base_ = lo;
    }
  }
  /// Entry of `id`, widening the span to cover it first.
  T& touch(std::size_t id) {
    if (!covers(id)) cover(id, id);
    return entries_[id - base_];
  }

  /// Replaces the table by exactly the span [lo, hi], every entry `fill`.
  /// Keeps capacity, so a steady-state reset does not allocate.
  void reset(std::size_t lo, std::size_t hi, const T& fill) {
    base_ = lo;
    entries_.assign(hi - lo + 1, fill);
  }
  void clear() {
    base_ = 0;
    entries_.clear();
  }

 private:
  [[nodiscard]] bool covers(std::size_t id) const {
    return id - base_ < entries_.size();  // unsigned: id < base_ wraps high
  }

  std::size_t base_ = 0;
  std::vector<T> entries_;
};

}  // namespace pcap::common
