#ifndef SPPNET_SIM_SIM_STATE_H_
#define SPPNET_SIM_SIM_STATE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/io/checkpoint.h"

namespace sppnet {

/// Per-user-query bookkeeping shared by all strategies, keyed by the
/// root query id (expanding-ring / retry qids map back to it).
struct QueryState {
  std::uint32_t user = 0;      ///< Submitting user.
  std::uint32_t query_class = 0;
  std::uint32_t ring_ttl = 0;  ///< Current ring (expanding ring only).
  double ring_results = 0.0;   ///< Results from the current ring.
  double submit_time = 0.0;
  std::uint64_t cache_key = 0;
  bool first_response_seen = false;
};

/// One source-side result-cache entry (flood strategy).
struct QueryCacheEntry {
  double expires = 0.0;
  double results = 0.0;
  double addrs = 0.0;
  /// Root qid whose responses currently fill this entry; concurrent
  /// floods of the same query must not double-accumulate.
  std::uint64_t owner = 0;
};

/// Open-addressing Key -> V table (Key is uint64 or uint32):
/// power-of-two capacity, linear probing. Point lookups only; nothing
/// is ever erased, and the only iteration (ForEach) serves the
/// checkpoint path, which sorts what it collects — exactly the
/// simulator's access pattern (duplicate tables, result caches) and
/// what makes the layout safely deterministic: probe order can never
/// leak into results.
///
/// Occupancy depends on the key width. A 64-bit key may take any value
/// (hashes, content keys), so the slot carries a generation stamp and
/// Clear() is O(1) — bump the generation. A 32-bit key gives up one
/// value, kEmptyKey, to mark free slots, so the slot is just key and
/// value (8 bytes for a uint32 value), and the table cannot be cleared.
template <typename Key, typename V>
class FlatMap {
  static_assert(std::is_same_v<Key, std::uint64_t> ||
                std::is_same_v<Key, std::uint32_t>);

 public:
  /// The key a 32-bit table reserves for free slots; never insertable.
  static constexpr Key kEmptyKey = ~Key{0};

  FlatMap() = default;

  /// Null when absent.
  V* Find(Key key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = Mix(key) & mask_;
    while (Live(slots_[i])) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(Key key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// Returns (slot, inserted). A fresh slot holds a value-initialized V.
  std::pair<V*, bool> FindOrInsert(Key key) {
    if constexpr (!kStamped) SPPNET_CHECK(key != kEmptyKey);
    if (size_ + 1 > (Capacity() * 7) / 10) Grow();
    std::size_t i = Mix(key) & mask_;
    while (Live(slots_[i])) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    Occupy(slots_[i], key);
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Drops every entry without touching the slot storage (64-bit keys
  /// only: bump the generation).
  void Clear() {
    static_assert(kStamped, "only generation-stamped tables clear in O(1)");
    ++generation_;
    size_ = 0;
  }

  /// Invokes fn(key, value) for every live entry, in unspecified slot
  /// order. Checkpoint-path only: callers sort what they collect, so
  /// the probe layout still cannot leak into results.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (Live(slot)) fn(slot.key, slot.value);
    }
  }

  std::size_t size() const { return size_; }
  std::size_t Capacity() const { return slots_.size(); }
  std::size_t ApproxMemoryBytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr bool kStamped = sizeof(Key) == sizeof(std::uint64_t);

  /// The occupancy mark lives inside the slot so a probe touches one
  /// cache line, not two — the tables are far larger than LLC under
  /// real workloads and every avoided line is a DRAM miss saved.
  struct StampedSlot {
    Key key = 0;
    V value{};
    std::uint32_t stamp = 0;  ///< Occupied iff == generation_.
  };
  struct SentinelSlot {
    Key key = kEmptyKey;  ///< Occupied iff != kEmptyKey.
    V value{};
  };
  using Slot = std::conditional_t<kStamped, StampedSlot, SentinelSlot>;

  static bool LiveIn(const Slot& slot, std::uint32_t generation) {
    if constexpr (kStamped) {
      return slot.stamp == generation;
    } else {
      return slot.key != kEmptyKey;
    }
  }
  bool Live(const Slot& slot) const { return LiveIn(slot, generation_); }
  void Occupy(Slot& slot, Key key) const {
    slot.key = key;
    if constexpr (kStamped) slot.stamp = generation_;
  }

  // splitmix64 finalizer: cheap, and scrambles the low bits the
  // sequential qids concentrate in.
  static std::size_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  void Grow() {
    const std::size_t new_cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old_slots = std::move(slots_);
    const std::uint32_t old_gen = generation_;
    slots_.assign(new_cap, Slot{});
    generation_ = 1;
    mask_ = new_cap - 1;
    for (Slot& slot : old_slots) {
      if (!LiveIn(slot, old_gen)) continue;
      std::size_t j = Mix(slot.key) & mask_;
      while (Live(slots_[j])) j = (j + 1) & mask_;
      slots_[j] = std::move(slot);
      Occupy(slots_[j], slots_[j].key);
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 1;  ///< Stamped tables only.
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

template <typename V>
using FlatMap64 = FlatMap<std::uint64_t, V>;
template <typename V>
using FlatMap32 = FlatMap<std::uint32_t, V>;

/// All per-query simulator state behind one facade: the duplicate
/// tables (per-cluster qid -> upstream), the per-root QueryState, the
/// retry-qid -> root mapping, the interned query strings of concrete
/// mode, and the per-cluster result caches. The storage exploits the
/// fact that query ids are handed out sequentially from 0 (generation-
/// stamped slot arrays keyed by qid) and that the per-cluster tables
/// only ever see point lookups (open addressing, no per-entry
/// allocation); see DESIGN.md §9 for the determinism argument.
class SimState {
 public:
  explicit SimState(std::size_t num_clusters);

  /// Grows the per-cluster containers to cover cluster ids below
  /// `num_clusters` (no-op when already large enough). The in-sim
  /// adaptation layer appends cluster slots when a split promotes a new
  /// super-peer; existing entries are untouched, so growth never
  /// perturbs prior state.
  void EnsureClusters(std::size_t num_clusters);

  // --- Duplicate tables (per-cluster qid -> upstream) ---------------------
  /// Cluster ids must stay below this (checked): the duplicate tables
  /// key clusters by uint32 and reserve the top value for free slots.
  static constexpr std::size_t kNoCluster =
      FlatMap32<std::uint32_t>::kEmptyKey;

  /// Records that `cluster` saw `qid` arriving from `upstream`; returns
  /// true on the first visit (false: duplicate, upstream unchanged).
  /// Defined inline below: this is the hottest call in the simulator
  /// (once per query arrival).
  bool MarkSeen(std::size_t cluster, std::uint64_t qid,
                std::uint32_t upstream);
  /// Upstream recorded by MarkSeen; null when the cluster never saw qid.
  const std::uint32_t* Upstream(std::size_t cluster, std::uint64_t qid) const;

  // --- Per-root query state ----------------------------------------------
  /// Creates (value-initialized) state for a fresh root qid.
  QueryState& Claim(std::uint64_t qid);
  /// Null when qid was never claimed.
  QueryState* Find(std::uint64_t qid);

  // --- Retry-qid -> root mapping ------------------------------------------
  void SetRoot(std::uint64_t qid, std::uint64_t root);
  /// Root of `qid`; identity when unmapped.
  std::uint64_t RootOf(std::uint64_t qid) const;

  // --- Query strings (concrete-index mode) --------------------------------
  /// Interns `text` as the query string of `qid`.
  void SetQueryString(std::uint64_t qid, const std::string& text);
  /// Points `retry_qid` at `root`'s string (no-op when root has none).
  void ShareQueryString(std::uint64_t root, std::uint64_t retry_qid);
  /// Null when qid has no string.
  const std::string* QueryString(std::uint64_t qid) const;
  /// std::hash of qid's string; false when qid has no string. The hash
  /// is pre-computed once per distinct interned string — the value is
  /// identical to hashing on demand.
  bool QueryStringHash(std::uint64_t qid, std::uint64_t* out) const;

  // --- Per-cluster result caches ------------------------------------------
  /// Null when `cluster` has no live entry for `key`.
  QueryCacheEntry* FindCacheEntry(std::size_t cluster, std::uint64_t key);
  /// Find-or-insert (fresh entries value-initialized), with
  /// std::unordered_map::operator[] semantics.
  QueryCacheEntry& CacheEntrySlot(std::size_t cluster, std::uint64_t key);

  // --- Retirement (streaming mode) -----------------------------------------
  /// Drops every qid-keyed entry (duplicate tables, query states, root
  /// mappings, per-qid string slots) for qids below `floor` and makes
  /// those qids unaddressable, bounding resident state on an unbounded
  /// run. The caller guarantees no in-flight event references a retired
  /// qid (the streaming layer's retention horizon, DESIGN.md §11); the
  /// floor is monotone — a lower `floor` is a no-op. Interned string
  /// *texts* and the result caches are kept: both are bounded by the
  /// workload (distinct strings / cache keys), not by the qid sequence.
  void RetireBelow(std::uint64_t floor);
  std::uint64_t retire_floor() const { return qid_base_; }

  // --- Checkpoint (streaming mode) ------------------------------------------
  /// Serializes the logical contents in a canonically sorted form: the
  /// bytes are a function of the entries alone, never of the tables'
  /// probe layouts or capacities.
  void SaveTo(CheckpointWriter& w) const;
  /// Populates this freshly constructed, still-empty state (checked)
  /// from a checkpoint. Returns false when the payload is malformed.
  bool LoadFrom(CheckpointReader& r);

  // --- Introspection (sim.state.* gauges) ----------------------------------
  /// Approximate resident bytes of every container above, derived from
  /// element counts and capacities (deterministic).
  std::size_t ApproxScratchBytes() const;
  std::uint64_t duplicate_entries() const { return duplicate_entries_; }
  std::uint64_t interned_strings() const { return interned_count_; }

 private:
  static constexpr std::uint64_t kNoRoot = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSymbol = ~std::uint32_t{0};

  /// Amortized growth of a qid-indexed slot array to cover `qid`.
  template <typename T>
  static void EnsureSlot(std::vector<T>& v, std::uint64_t qid, const T& fill) {
    if (qid < v.size()) return;
    std::size_t target = std::max<std::size_t>(v.size() * 2, 64);
    target = std::max<std::size_t>(target, static_cast<std::size_t>(qid) + 1);
    v.resize(target, fill);
  }

  /// Dense slot of `qid`. Slot arrays are indexed relative to the
  /// retirement floor; a retired qid wraps to a huge index and reads as
  /// absent (writes grow-check against it and abort).
  std::size_t SlotOf(std::uint64_t qid) const {
    return static_cast<std::size_t>(qid - qid_base_);
  }

  /// Qids below this are retired (RetireBelow); 0 in batch runs.
  std::uint64_t qid_base_ = 0;
  std::uint64_t duplicate_entries_ = 0;
  std::uint64_t interned_count_ = 0;

  /// Duplicate tables indexed by qid, keyed by cluster, 8 bytes a slot.
  /// Qids are touched in tight bursts (one flood), so the hot table is
  /// small and cache-resident; per-cluster tables would spread the same
  /// probes over the whole table population.
  std::vector<FlatMap32<std::uint32_t>> dense_table_;
  std::vector<QueryState> state_slots_;                 // Indexed by qid.
  std::vector<std::uint8_t> state_live_;
  std::vector<std::uint64_t> root_slots_;               // kNoRoot = unset.
  std::vector<std::uint32_t> symbol_slots_;             // kNoSymbol = unset.
  std::vector<std::string> symbol_texts_;
  std::vector<std::uint64_t> symbol_hashes_;
  std::unordered_map<std::string, std::uint32_t> symbol_lookup_;
  std::vector<FlatMap64<QueryCacheEntry>> dense_cache_;  // Lazy-sized.
};

inline bool SimState::MarkSeen(std::size_t cluster, std::uint64_t qid,
                               std::uint32_t upstream) {
  // A visit for a retired qid means the retention horizon was violated
  // (its slot is gone, and a wrapped index would grow the table without
  // bound); one predictable compare buys a loud failure instead.
  SPPNET_CHECK(qid >= qid_base_);
  SPPNET_CHECK(cluster < kNoCluster);
  // Keyed per qid (not per cluster): a flood's visits all land in one
  // small table that stays cache-resident while the flood is live,
  // instead of scattering point probes across every cluster's table.
  EnsureSlot(dense_table_, SlotOf(qid), {});
  const auto [slot, inserted] = dense_table_[SlotOf(qid)].FindOrInsert(
      static_cast<std::uint32_t>(cluster));
  if (inserted) {
    *slot = upstream;
    ++duplicate_entries_;
  }
  return inserted;
}

inline const std::uint32_t* SimState::Upstream(std::size_t cluster,
                                               std::uint64_t qid) const {
  if (SlotOf(qid) >= dense_table_.size() || cluster >= kNoCluster) {
    return nullptr;
  }
  return dense_table_[SlotOf(qid)].Find(static_cast<std::uint32_t>(cluster));
}

}  // namespace sppnet

#endif  // SPPNET_SIM_SIM_STATE_H_
