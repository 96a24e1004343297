/// \file computed_table.hpp
/// Fixed-size, direct-mapped, lossy memoization cache for the DD package's
/// recursive operations — the design production QMDD packages use in place
/// of unbounded hash maps.  Replaces the former std::unordered_map operation
/// caches: a lookup is one array probe (no allocation, no chaining), an
/// insert overwrites whatever lives in the slot (a counted *eviction* when it
/// displaces a live entry), and clearing is an O(1) epoch bump — an entry is
/// valid only while its stored epoch equals the table's current epoch, so
/// garbageCollect()/clearCaches() never touch the backing array.
///
/// Storage: the entry array is allocated lazily (on the first insert) and is
/// *never zero-initialized* — validity is tracked by a separate occupancy
/// bitmap (1 bit per slot, 8 KB for 2^16 slots), which is the only memory
/// cleared at construction.  This matters because packages are constructed in
/// loops (every simulator, every test fixture): zeroing a dozen multi-
/// megabyte arrays per package — or page-faulting them in from fresh mmaps —
/// costs orders of magnitude more than the operations the caches serve.
/// With the bitmap, the entry array comes from malloc's recycled hot pages
/// with no memset and no page faults, and caches that are never used cost
/// nothing at all.
///
/// Lossless mode (setLossless): losing a memoized result is only a time
/// cost when recomputation is deterministic.  Under a *tolerance-mode*
/// numeric weight system it is not — a recomputed weight can unify onto an
/// ε-neighbor interned in the meantime, perturbing the diagrams — so the
/// package switches its caches to spill displaced live entries into an
/// overflow map instead of dropping them, reproducing the compute-once
/// semantics of the former unbounded unordered_map caches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>

namespace qadd::dd {

/// \tparam Key    trivially copyable; must provide operator== and a
///                `std::uint64_t hash() const` with good avalanche behavior
///                (the table is direct-mapped, so the low bits index).
/// \tparam Value  trivially copyable payload.
/// \tparam NumEntries  power-of-two slot count.
template <class Key, class Value, std::size_t NumEntries = std::size_t{1} << 14U>
class ComputedTable {
  static_assert((NumEntries & (NumEntries - 1)) == 0, "NumEntries must be a power of two");
  static_assert(std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>,
                "ComputedTable requires POD keys/values (entries live in an uninitialized "
                "malloc'd array)");

public:
  static constexpr std::size_t kEntries = NumEntries;

  ComputedTable() = default;
  ~ComputedTable() { std::free(entries_); }

  ComputedTable(const ComputedTable&) = delete;
  ComputedTable& operator=(const ComputedTable&) = delete;

  /// Copy the cached value for `key` into `out` and return true, or return
  /// false on a miss.  Entries written before the last clear() are never
  /// returned.
  [[nodiscard]] bool lookup(const Key& key, Value& out) const {
    if (entries_ == nullptr) {
      return false; // nothing inserted yet
    }
    const std::size_t slot = slotOf(key);
    if (occupied(slot)) {
      const Entry& entry = entries_[slot];
      if (entry.epoch == epoch_ && entry.key == key) {
        out = entry.value;
        return true;
      }
    }
    if (lossless_ && !spill_.empty()) {
      if (const auto it = spill_.find(key); it != spill_.end()) {
        out = it->second;
        return true;
      }
    }
    return false;
  }

  /// Store `key -> value`, overwriting the slot's previous occupant (in
  /// lossless mode a displaced live entry is spilled, not dropped).
  /// Returns true iff a *live* entry with a different key was displaced
  /// (the eviction/spill telemetry event).
  bool insert(const Key& key, const Value& value) {
    if (entries_ == nullptr) {
      allocate();
    }
    const std::size_t slot = slotOf(key);
    Entry& entry = entries_[slot];
    const bool evicted = occupied(slot) && entry.epoch == epoch_ && !(entry.key == key);
    if (evicted && lossless_) {
      spill_.emplace(entry.key, entry.value);
    }
    entry.key = key;
    entry.value = value;
    entry.epoch = epoch_;
    occupancy_[slot >> 6U] |= std::uint64_t{1} << (slot & 63U);
    return evicted;
  }

  /// Invalidate every entry in O(1) by advancing the epoch.  (On the
  /// unreachable-in-practice 2^32 wraparound the occupancy bitmap is reset
  /// for real, so a stale entry can never alias a fresh epoch.)
  void clear() {
    if (++epoch_ == 0) {
      if (occupancy_ != nullptr) {
        std::memset(static_cast<void*>(occupancy_.get()), 0, kOccupancyWords * sizeof(std::uint64_t));
      }
      epoch_ = 1;
    }
    spill_.clear();
  }

  /// Number of clears since construction (for tests/telemetry).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Retain displaced live entries in an overflow map so no memoized result
  /// is ever lost (see the file comment on order-dependent recomputation).
  void setLossless(bool lossless) { lossless_ = lossless; }
  [[nodiscard]] bool lossless() const { return lossless_; }

  /// Direct-mapped slot index of a key (exposed for collision tests).
  [[nodiscard]] static std::size_t slotOf(const Key& key) {
    return static_cast<std::size_t>(key.hash()) & (NumEntries - 1);
  }

private:
  struct Entry {
    Key key;
    Value value;
    std::uint32_t epoch; ///< valid iff equal to the table's current epoch
  };

  struct KeyHasher {
    std::size_t operator()(const Key& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };

  static constexpr std::size_t kOccupancyWords = NumEntries / 64;
  static_assert(kOccupancyWords > 0, "NumEntries must be at least 64");

  [[nodiscard]] bool occupied(std::size_t slot) const {
    return (occupancy_[slot >> 6U] >> (slot & 63U)) & 1U;
  }

  void allocate() {
    // Entries stay uninitialized on purpose — the bitmap is the ground truth
    // for whether a slot has ever been written.
    entries_ = static_cast<Entry*>(std::malloc(NumEntries * sizeof(Entry)));
    if (entries_ == nullptr) {
      throw std::bad_alloc();
    }
    occupancy_ = std::make_unique<std::uint64_t[]>(kOccupancyWords); // zeroed
  }

  Entry* entries_ = nullptr; ///< allocated on first insert; uninitialized
  std::unique_ptr<std::uint64_t[]> occupancy_; ///< 1 bit per slot: ever written
  std::uint32_t epoch_ = 1;
  bool lossless_ = false;
  std::unordered_map<Key, Value, KeyHasher> spill_; ///< displaced live entries (lossless mode)
};

} // namespace qadd::dd
