#include "sppnet/sim/sim_state.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace sppnet {

SimState::SimState(std::size_t num_clusters) : dense_cache_(num_clusters) {}

void SimState::EnsureClusters(std::size_t num_clusters) {
  if (num_clusters > dense_cache_.size()) dense_cache_.resize(num_clusters);
}

QueryState& SimState::Claim(std::uint64_t qid) {
  SPPNET_CHECK(qid >= qid_base_);
  const std::size_t slot = SlotOf(qid);
  EnsureSlot(state_slots_, slot, QueryState{});
  EnsureSlot(state_live_, slot, std::uint8_t{0});
  SPPNET_CHECK(!state_live_[slot]);
  state_live_[slot] = 1;
  state_slots_[slot] = QueryState{};
  return state_slots_[slot];
}

QueryState* SimState::Find(std::uint64_t qid) {
  const std::size_t slot = SlotOf(qid);
  if (slot >= state_live_.size() || !state_live_[slot]) return nullptr;
  return &state_slots_[slot];
}

void SimState::SetRoot(std::uint64_t qid, std::uint64_t root) {
  SPPNET_CHECK(qid >= qid_base_);
  const std::size_t slot = SlotOf(qid);
  EnsureSlot(root_slots_, slot, kNoRoot);
  if (root_slots_[slot] == kNoRoot) root_slots_[slot] = root;
}

std::uint64_t SimState::RootOf(std::uint64_t qid) const {
  const std::size_t slot = SlotOf(qid);
  if (slot >= root_slots_.size() || root_slots_[slot] == kNoRoot) return qid;
  return root_slots_[slot];
}

void SimState::SetQueryString(std::uint64_t qid, const std::string& text) {
  SPPNET_CHECK(qid >= qid_base_);
  const std::size_t slot = SlotOf(qid);
  EnsureSlot(symbol_slots_, slot, kNoSymbol);
  if (symbol_slots_[slot] != kNoSymbol) return;  // emplace semantics.
  const auto [it, inserted] = symbol_lookup_.try_emplace(
      text, static_cast<std::uint32_t>(symbol_texts_.size()));
  if (inserted) {
    symbol_texts_.push_back(text);
    // Hashing once at intern time matches hashing on demand: equal
    // strings hash equal.
    symbol_hashes_.push_back(std::hash<std::string>{}(text));
  }
  symbol_slots_[slot] = it->second;
  ++interned_count_;
}

void SimState::ShareQueryString(std::uint64_t root, std::uint64_t retry_qid) {
  SPPNET_CHECK(retry_qid >= qid_base_);
  const std::size_t root_slot = SlotOf(root);
  if (root_slot >= symbol_slots_.size() ||
      symbol_slots_[root_slot] == kNoSymbol) {
    return;
  }
  const std::size_t slot = SlotOf(retry_qid);
  EnsureSlot(symbol_slots_, slot, kNoSymbol);
  if (symbol_slots_[slot] != kNoSymbol) return;
  symbol_slots_[slot] = symbol_slots_[root_slot];
  ++interned_count_;
}

const std::string* SimState::QueryString(std::uint64_t qid) const {
  const std::size_t slot = SlotOf(qid);
  if (slot >= symbol_slots_.size() || symbol_slots_[slot] == kNoSymbol) {
    return nullptr;
  }
  return &symbol_texts_[symbol_slots_[slot]];
}

bool SimState::QueryStringHash(std::uint64_t qid, std::uint64_t* out) const {
  const std::size_t slot = SlotOf(qid);
  if (slot >= symbol_slots_.size() || symbol_slots_[slot] == kNoSymbol) {
    return false;
  }
  *out = symbol_hashes_[symbol_slots_[slot]];
  return true;
}

QueryCacheEntry* SimState::FindCacheEntry(std::size_t cluster,
                                          std::uint64_t key) {
  return dense_cache_[cluster].Find(key);
}

QueryCacheEntry& SimState::CacheEntrySlot(std::size_t cluster,
                                          std::uint64_t key) {
  return *dense_cache_[cluster].FindOrInsert(key).first;
}

void SimState::RetireBelow(std::uint64_t floor) {
  if (floor <= qid_base_) return;
  const std::uint64_t drop = floor - qid_base_;
  const auto drop_prefix = [drop](auto& v) {
    const std::size_t d =
        static_cast<std::size_t>(std::min<std::uint64_t>(drop, v.size()));
    v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(d));
  };
  drop_prefix(dense_table_);
  drop_prefix(state_slots_);
  drop_prefix(state_live_);
  drop_prefix(root_slots_);
  drop_prefix(symbol_slots_);
  qid_base_ = floor;
}

namespace {

// Section tag bracketing the SimState payload inside a checkpoint
// ("stat" in little-endian ASCII).
constexpr std::uint32_t kStateTag = 0x74617473u;

void PutQueryState(CheckpointWriter& w, const QueryState& s) {
  w.PutU32(s.user);
  w.PutU32(s.query_class);
  w.PutU32(s.ring_ttl);
  w.PutDouble(s.ring_results);
  w.PutDouble(s.submit_time);
  w.PutU64(s.cache_key);
  w.PutBool(s.first_response_seen);
}

QueryState GetQueryState(CheckpointReader& r) {
  QueryState s;
  s.user = r.GetU32();
  s.query_class = r.GetU32();
  s.ring_ttl = r.GetU32();
  s.ring_results = r.GetDouble();
  s.submit_time = r.GetDouble();
  s.cache_key = r.GetU64();
  s.first_response_seen = r.GetBool();
  return s;
}

}  // namespace

void SimState::SaveTo(CheckpointWriter& w) const {
  w.BeginSection(kStateTag);
  w.PutU64(qid_base_);
  w.PutU64(duplicate_entries_);
  w.PutU64(interned_count_);
  w.PutU64(dense_cache_.size());

  // Every list below is collected then canonically sorted, so the bytes
  // are a function of the logical contents alone, never of the tables'
  // probe layouts.
  struct SeenEntry {
    std::uint64_t qid;
    std::uint64_t cluster;
    std::uint32_t upstream;
  };
  std::vector<SeenEntry> seen;
  for (std::size_t i = 0; i < dense_table_.size(); ++i) {
    dense_table_[i].ForEach(
        [&](std::uint64_t cluster, const std::uint32_t& upstream) {
          seen.push_back({qid_base_ + i, cluster, upstream});
        });
  }
  std::sort(seen.begin(), seen.end(), [](const SeenEntry& a,
                                         const SeenEntry& b) {
    return a.qid != b.qid ? a.qid < b.qid : a.cluster < b.cluster;
  });
  w.PutU64(seen.size());
  for (const SeenEntry& e : seen) {
    w.PutU64(e.qid);
    w.PutU64(e.cluster);
    w.PutU32(e.upstream);
  }

  // The slot arrays below are already in qid order.
  std::vector<std::pair<std::uint64_t, QueryState>> states;
  for (std::size_t i = 0; i < state_live_.size(); ++i) {
    if (state_live_[i]) states.emplace_back(qid_base_ + i, state_slots_[i]);
  }
  w.PutU64(states.size());
  for (const auto& [qid, state] : states) {
    w.PutU64(qid);
    PutQueryState(w, state);
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  for (std::size_t i = 0; i < root_slots_.size(); ++i) {
    if (root_slots_[i] != kNoRoot) {
      roots.emplace_back(qid_base_ + i, root_slots_[i]);
    }
  }
  w.PutU64(roots.size());
  for (const auto& [qid, root] : roots) {
    w.PutU64(qid);
    w.PutU64(root);
  }

  std::vector<std::pair<std::uint64_t, const std::string*>> strings;
  for (std::size_t i = 0; i < symbol_slots_.size(); ++i) {
    if (symbol_slots_[i] != kNoSymbol) {
      strings.emplace_back(qid_base_ + i, &symbol_texts_[symbol_slots_[i]]);
    }
  }
  w.PutU64(strings.size());
  for (const auto& [qid, text] : strings) {
    w.PutU64(qid);
    w.PutString(*text);
  }

  struct CacheLine {
    std::uint64_t cluster;
    std::uint64_t key;
    QueryCacheEntry entry;
  };
  std::vector<CacheLine> cache_lines;
  for (std::size_t c = 0; c < dense_cache_.size(); ++c) {
    dense_cache_[c].ForEach(
        [&](std::uint64_t key, const QueryCacheEntry& entry) {
          cache_lines.push_back({c, key, entry});
        });
  }
  std::sort(cache_lines.begin(), cache_lines.end(),
            [](const CacheLine& a, const CacheLine& b) {
              return a.cluster != b.cluster ? a.cluster < b.cluster
                                            : a.key < b.key;
            });
  w.PutU64(cache_lines.size());
  for (const CacheLine& line : cache_lines) {
    w.PutU64(line.cluster);
    w.PutU64(line.key);
    w.PutDouble(line.entry.expires);
    w.PutDouble(line.entry.results);
    w.PutDouble(line.entry.addrs);
    w.PutU64(line.entry.owner);
  }
}

bool SimState::LoadFrom(CheckpointReader& r) {
  SPPNET_CHECK(duplicate_entries_ == 0 && interned_count_ == 0 &&
               qid_base_ == 0);
  if (!r.BeginSection(kStateTag)) return false;
  qid_base_ = r.GetU64();
  const std::uint64_t saved_duplicates = r.GetU64();
  const std::uint64_t saved_interned = r.GetU64();
  EnsureClusters(static_cast<std::size_t>(r.GetU64()));

  const std::uint64_t num_seen = r.GetU64();
  for (std::uint64_t i = 0; i < num_seen && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::size_t cluster = static_cast<std::size_t>(r.GetU64());
    const std::uint32_t upstream = r.GetU32();
    if (r.ok()) MarkSeen(cluster, qid, upstream);
  }

  const std::uint64_t num_states = r.GetU64();
  for (std::uint64_t i = 0; i < num_states && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const QueryState state = GetQueryState(r);
    if (r.ok()) Claim(qid) = state;
  }

  const std::uint64_t num_roots = r.GetU64();
  for (std::uint64_t i = 0; i < num_roots && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::uint64_t root = r.GetU64();
    if (r.ok()) SetRoot(qid, root);
  }

  const std::uint64_t num_strings = r.GetU64();
  for (std::uint64_t i = 0; i < num_strings && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::string text = r.GetString();
    if (r.ok()) SetQueryString(qid, text);
  }

  const std::uint64_t num_cache_lines = r.GetU64();
  for (std::uint64_t i = 0; i < num_cache_lines && r.ok(); ++i) {
    const std::size_t cluster = static_cast<std::size_t>(r.GetU64());
    const std::uint64_t key = r.GetU64();
    QueryCacheEntry entry;
    entry.expires = r.GetDouble();
    entry.results = r.GetDouble();
    entry.addrs = r.GetDouble();
    entry.owner = r.GetU64();
    if (r.ok()) CacheEntrySlot(cluster, key) = entry;
  }

  // The tallies count historical inserts (including since-retired
  // entries), not the live set the loop above re-inserted.
  duplicate_entries_ = saved_duplicates;
  interned_count_ = saved_interned;
  return r.ok();
}

std::size_t SimState::ApproxScratchBytes() const {
  std::size_t bytes = 0;
  for (const auto& table : dense_table_) bytes += table.ApproxMemoryBytes();
  for (const auto& cache : dense_cache_) bytes += cache.ApproxMemoryBytes();
  bytes += dense_table_.capacity() * sizeof(dense_table_[0]);
  bytes += dense_cache_.capacity() * sizeof(dense_cache_[0]);
  bytes += state_slots_.capacity() * sizeof(QueryState);
  bytes += state_live_.capacity();
  bytes += root_slots_.capacity() * sizeof(std::uint64_t);
  bytes += symbol_slots_.capacity() * sizeof(std::uint32_t);
  bytes += symbol_hashes_.capacity() * sizeof(std::uint64_t);
  for (const std::string& text : symbol_texts_) {
    bytes += sizeof(std::string) + text.capacity();
  }
  // The intern lookup is a std::unordered_map: estimate its node header
  // + payload, plus the bucket-array pointer amortized per element.
  bytes += symbol_lookup_.size() *
           (sizeof(std::pair<const std::string, std::uint32_t>) +
            2 * sizeof(void*));
  return bytes;
}

}  // namespace sppnet
