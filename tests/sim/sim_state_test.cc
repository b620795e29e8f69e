// Unit coverage for the simulator's per-query state: the FlatMap64
// open-addressing table in isolation, and SimState's observable
// semantics op by op (the whole-simulator version of this contract
// lives in engine_equivalence_test.cc).

#include "sppnet/sim/sim_state.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"

namespace sppnet {
namespace {

TEST(FlatMap64Test, FindOnEmptyReturnsNull) {
  FlatMap64<std::uint32_t> m;
  EXPECT_EQ(m.Find(0), nullptr);
  EXPECT_EQ(m.Find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap64Test, InsertFindRoundTrip) {
  FlatMap64<std::uint32_t> m;
  const auto [slot, inserted] = m.FindOrInsert(42);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*slot, 0u);  // Fresh slots are value-initialized.
  *slot = 7;
  const auto [again, inserted_again] = m.FindOrInsert(42);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 7u);
  ASSERT_NE(m.Find(42), nullptr);
  EXPECT_EQ(*m.Find(42), 7u);
  EXPECT_EQ(m.Find(43), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64Test, GrowthPreservesEntries) {
  FlatMap64<std::uint64_t> m;
  constexpr std::uint64_t kNumKeys = 10000;
  for (std::uint64_t i = 0; i < kNumKeys; ++i) {
    // Sequential qid-like keys — the production access pattern the
    // splitmix64 scramble exists for.
    *m.FindOrInsert(i).first = i * 3 + 1;
  }
  EXPECT_EQ(m.size(), kNumKeys);
  EXPECT_GE(m.Capacity(), kNumKeys);
  EXPECT_GT(m.ApproxMemoryBytes(), 0u);
  for (std::uint64_t i = 0; i < kNumKeys; ++i) {
    ASSERT_NE(m.Find(i), nullptr) << i;
    ASSERT_EQ(*m.Find(i), i * 3 + 1) << i;
  }
  EXPECT_EQ(m.Find(kNumKeys), nullptr);
}

TEST(FlatMap64Test, ClearIsGenerationBumpNotStorageWipe) {
  FlatMap64<std::uint32_t> m;
  for (std::uint64_t i = 0; i < 100; ++i) *m.FindOrInsert(i).first = 1;
  const std::size_t capacity = m.Capacity();
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Capacity(), capacity);  // O(1): storage untouched.
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Find(i), nullptr) << i;
  }
  // Reinsertion after Clear starts from value-initialized slots again.
  const auto [slot, inserted] = m.FindOrInsert(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64Test, AdversarialKeysCollideWithoutLoss) {
  // Keys differing only in high bits, plus wide-spread randoms: linear
  // probing must keep every entry reachable.
  FlatMap64<std::uint64_t> m;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 64; ++i) {
    keys.push_back(i << 56);
    keys.push_back((i << 32) | 0xabcdef);
  }
  Rng rng(31337);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.NextUint64());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    *m.FindOrInsert(keys[i]).first = i;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(m.Find(keys[i]), nullptr) << i;
    // Duplicated random keys keep the last write; re-derive expected.
    std::size_t expected = i;
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      if (keys[j] == keys[i]) expected = j;
    }
    ASSERT_EQ(*m.Find(keys[i]), expected) << i;
  }
}

// --- SimState semantics ------------------------------------------------
//
// Every operation's observable result, checked against explicit expected
// values (and, for the random MarkSeen sequence, a small first-writer-
// wins map). The whole-simulator goldens in engine_equivalence_test.cc
// depend on these semantics; these tests localize a violation to the
// specific operation instead of a whole-run digest.

TEST(SimStateParityTest, MarkSeenAndUpstream) {
  SimState s(8);
  // Oracle: (cluster, qid) -> the first upstream recorded for it.
  std::unordered_map<std::uint64_t, std::uint32_t> first_upstream;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t cluster = rng.NextBounded(8);
    const std::uint64_t qid = rng.NextBounded(300);
    const auto upstream = static_cast<std::uint32_t>(rng.NextBounded(50));
    const auto [it, fresh] =
        first_upstream.try_emplace(qid * 8 + cluster, upstream);
    ASSERT_EQ(s.MarkSeen(cluster, qid, upstream), fresh);
    const std::uint32_t* up = s.Upstream(cluster, qid);
    ASSERT_NE(up, nullptr);
    ASSERT_EQ(*up, it->second);  // First writer wins.
  }
  EXPECT_EQ(s.duplicate_entries(), first_upstream.size());
  for (std::size_t cluster = 0; cluster < 8; ++cluster) {
    for (std::uint64_t qid = 0; qid < 300; ++qid) {
      EXPECT_EQ(s.Upstream(cluster, qid) != nullptr,
                first_upstream.count(qid * 8 + cluster) == 1);
    }
  }
  EXPECT_EQ(s.Upstream(0, 999999), nullptr);
}

TEST(SimStateParityTest, ClaimFindAndRootMapping) {
  SimState s(8);
  for (std::uint64_t qid = 0; qid < 200; qid += 2) {
    QueryState& state = s.Claim(qid);
    EXPECT_EQ(state.user, 0u);  // Claimed state is value-initialized.
    state.user = static_cast<std::uint32_t>(qid);
    state.submit_time = 0.5 * static_cast<double>(qid);
  }
  for (std::uint64_t qid = 0; qid < 220; ++qid) {
    QueryState* state = s.Find(qid);
    ASSERT_EQ(state != nullptr, qid < 200 && qid % 2 == 0) << qid;
    if (state != nullptr) {
      ASSERT_EQ(state->user, qid);
      ASSERT_EQ(state->submit_time, 0.5 * static_cast<double>(qid));
    }
  }
  // Root mapping: unmapped qids resolve to themselves; the first
  // SetRoot binding wins (emplace semantics).
  EXPECT_EQ(s.RootOf(17), 17u);
  s.SetRoot(100, 4);
  s.SetRoot(100, 9);  // Must not overwrite.
  EXPECT_EQ(s.RootOf(100), 4u);
  EXPECT_EQ(s.RootOf(101), 101u);
}

TEST(SimStateParityTest, QueryStringInterningAndHashes) {
  SimState s(8);
  s.SetQueryString(1, "alpha");
  s.SetQueryString(2, "beta");
  s.SetQueryString(3, "alpha");  // Same text, distinct qid.
  s.SetQueryString(1, "gamma");  // Emplace: must not overwrite.

  const std::pair<std::uint64_t, const char*> expected[] = {
      {1, "alpha"}, {2, "beta"}, {3, "alpha"}};
  for (const auto& [qid, text] : expected) {
    const std::string* got = s.QueryString(qid);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(*got, text);
    std::uint64_t hash = 0;
    ASSERT_TRUE(s.QueryStringHash(qid, &hash));
    // The precomputed hash equals hashing on demand.
    ASSERT_EQ(hash, std::hash<std::string>{}(text));
  }
  EXPECT_EQ(s.QueryString(7), nullptr);
  std::uint64_t unused = 0;
  EXPECT_FALSE(s.QueryStringHash(7, &unused));
  // interned_strings counts qid -> string bindings, not distinct texts.
  EXPECT_EQ(s.interned_strings(), 3u);

  // ShareQueryString: retry qids borrow the root's string; sharing from
  // a string-less root is a no-op; an existing binding is kept.
  s.ShareQueryString(2, 10);
  ASSERT_NE(s.QueryString(10), nullptr);
  EXPECT_EQ(*s.QueryString(10), "beta");
  s.ShareQueryString(999, 11);  // Root has no string.
  EXPECT_EQ(s.QueryString(11), nullptr);
  s.ShareQueryString(1, 10);  // 10 already bound to "beta".
  EXPECT_EQ(*s.QueryString(10), "beta");
  EXPECT_EQ(s.interned_strings(), 4u);
}

TEST(SimStateParityTest, ResultCacheEntries) {
  SimState s(8);
  EXPECT_EQ(s.FindCacheEntry(3, 77), nullptr);
  QueryCacheEntry& entry = s.CacheEntrySlot(3, 77);
  EXPECT_EQ(entry.expires, 0.0);  // Fresh entries value-initialized.
  EXPECT_EQ(entry.owner, 0u);
  entry.expires = 12.5;
  entry.results = 4.0;
  entry.owner = 9;
  ASSERT_NE(s.FindCacheEntry(3, 77), nullptr);
  EXPECT_EQ(s.FindCacheEntry(3, 77)->owner, 9u);
  // Same key in another cluster is independent.
  EXPECT_EQ(s.FindCacheEntry(4, 77), nullptr);
  // Slot access on an existing key returns the live entry.
  EXPECT_EQ(s.CacheEntrySlot(3, 77).results, 4.0);
  EXPECT_EQ(s.CacheEntrySlot(3, 77).expires, 12.5);
}

TEST(SimStateTest, ScratchBytesTrackPopulation) {
  SimState s(8);
  const std::size_t empty_bytes = s.ApproxScratchBytes();
  Rng rng(21);
  for (std::uint64_t qid = 0; qid < 5000; ++qid) {
    s.Claim(qid);
    s.SetRoot(qid, qid);
    for (int c = 0; c < 3; ++c) {
      const std::size_t cluster = rng.NextBounded(8);
      const auto up = static_cast<std::uint32_t>(rng.NextBounded(40));
      s.MarkSeen(cluster, qid, up);
    }
  }
  // Absolute bytes are layout-dependent; what must hold is that the
  // estimate grew with the population (the per-node figures for the
  // real simulator workload are measured in bench/sim_scale).
  EXPECT_GT(s.ApproxScratchBytes(), empty_bytes + 100u * 1024u);
}

TEST(SimStateDeathTest, DenseClaimRejectsReclaim) {
  // Root qids are claimed exactly once per submission; a double claim is
  // a qid-allocation bug SimState traps.
  SimState state(2);
  state.Claim(5);
  EXPECT_DEATH(state.Claim(5), "state_live_");
}

}  // namespace
}  // namespace sppnet
