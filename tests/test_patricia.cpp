// Patricia trie on LLX/SCX (E6's second structure): prefix-heavy
// sequential semantics, the pinned tree-update SCX shapes from DESIGN.md
// §8 (identical to the BST's), and the 4-thread oracle stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "ds/patricia_llxscx.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

TEST(Patricia, EmptyTrieHasNoKeys) {
  LlxScxPatricia t;
  EXPECT_FALSE(t.get(1).has_value());
  EXPECT_FALSE(t.get(0).has_value());
  EXPECT_FALSE(t.erase(1));
  EXPECT_TRUE(t.items().empty());
}

TEST(Patricia, InsertGetEraseRoundTrip) {
  LlxScxPatricia t;
  EXPECT_TRUE(t.insert(42, 420));
  EXPECT_FALSE(t.insert(42, 999)) << "insert is insert-if-absent";
  ASSERT_TRUE(t.get(42).has_value());
  EXPECT_EQ(*t.get(42), 420u);
  EXPECT_FALSE(t.get(43).has_value());
  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_FALSE(t.get(42).has_value());
  Epoch::drain_all_for_testing();
}

TEST(Patricia, SharedPrefixAndExtremeKeys) {
  LlxScxPatricia t;
  // Keys chosen to exercise splits at bit 63, middle bits, and bit 0,
  // including key 0 and the largest user key (sentinel − 1).
  const std::uint64_t keys[] = {0,
                                1,
                                2,
                                3,
                                std::uint64_t{1} << 63,
                                (std::uint64_t{1} << 63) + 1,
                                (std::uint64_t{1} << 32) | 5,
                                LlxScxPatricia::kSentinelKey - 1};
  for (std::uint64_t k : keys) ASSERT_TRUE(t.insert(k, k ^ 0xABCD));
  for (std::uint64_t k : keys) {
    ASSERT_TRUE(t.get(k).has_value()) << k;
    EXPECT_EQ(*t.get(k), k ^ 0xABCD);
  }
  // Near misses on shared prefixes must not be found.
  EXPECT_FALSE(t.get(4).has_value());
  EXPECT_FALSE(t.get((std::uint64_t{1} << 63) + 2).has_value());
  EXPECT_FALSE(t.get((std::uint64_t{1} << 32) | 4).has_value());
  // In-order items come out in ascending unsigned key order.
  auto items = t.items();
  ASSERT_EQ(items.size(), std::size(keys));
  std::vector<std::uint64_t> sorted(std::begin(keys), std::end(keys));
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(items[i].first, sorted[i]);
  }
  for (std::uint64_t k : keys) EXPECT_TRUE(t.erase(k));
  EXPECT_TRUE(t.items().empty());
  Epoch::drain_all_for_testing();
}

TEST(Patricia, ShuffledInsertEraseKeepsSortedItems) {
  constexpr std::uint64_t kN = 512;
  std::vector<std::uint64_t> keys(kN);
  // Spread keys across the word so branch bits vary wildly.
  std::mt19937_64 rng(11);
  for (auto& k : keys) {
    do {
      k = rng();
    } while (k == LlxScxPatricia::kSentinelKey);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), rng);

  LlxScxPatricia t;
  for (std::uint64_t k : keys) ASSERT_TRUE(t.insert(k, ~k));
  auto items = t.items();
  ASSERT_EQ(items.size(), keys.size());
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(items[i].first, sorted[i]);
    EXPECT_EQ(items[i].second, ~sorted[i]);
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) ASSERT_TRUE(t.erase(keys[i]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.get(keys[i]).has_value(), i % 2 == 1);
  }
  Epoch::drain_all_for_testing();
}

// DESIGN.md §8: Patricia insert/delete are the SAME shapes as the BST's —
// insert SCX(V=⟨p,n⟩, R=⟨n⟩): k=2 ⇒ 3 CAS, f=1 ⇒ 3 writes; delete
// SCX(V=⟨gp,p,s⟩, R=⟨p,s⟩): k=3 ⇒ 4 CAS, f=2 ⇒ 4 writes.
TEST(Patricia, TreeUpdateScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxPatricia t;
  ASSERT_TRUE(t.insert(0b1000, 1));
  ASSERT_TRUE(t.insert(0b1010, 2));

  Stats::reset_mine();
  ASSERT_TRUE(t.insert(0b1001, 3));
  StepCounts d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "insert: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "insert: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 3u) << "branch + leaf + edge copy";
  EXPECT_EQ(d.retires, 1u) << "R = ⟨n⟩";

  Stats::reset_mine();
  ASSERT_TRUE(t.erase(0b1001));
  d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "delete: k+1 CAS with k=3";
  EXPECT_EQ(d.shared_writes, 4u) << "delete: f+2 writes with f=2";
  EXPECT_EQ(d.allocations, 1u) << "1 fresh sibling copy";
  EXPECT_EQ(d.retires, 3u) << "R = ⟨p, s⟩ plus the orphaned leaf";

  // A compressed branch edge splits like a leaf: 0b0001 leaves the bit-1
  // branch over {0b1000, 0b1010} at bit 3, so the insert lands on the
  // edge above that branch and installs branch(3, leaf(1), branch′) —
  // the same SCX shape.
  Stats::reset_mine();
  ASSERT_TRUE(t.insert(0b0001, 4));
  d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "branch split: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "branch split: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 3u) << "branch + leaf + branch copy";
  EXPECT_EQ(d.retires, 1u) << "R = ⟨n⟩, the split branch";
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0b0001, 4}, {0b1000, 1}, {0b1010, 2}};
  EXPECT_EQ(t.items(), want);
  Epoch::drain_all_for_testing();
}

TEST(PatriciaStress, MatchesLockedOracleUnderContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 256;

  LlxScxPatricia t;
  testing::KeyedOracle oracle;  // net membership per key

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 3000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          // Spread hot keys across the word (multiply by a large odd
          // constant) so contention hits deep shared-prefix splits too.
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace) *
              (0x9E3779B97F4A7C15ull | 1);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < 35) {
            if (t.insert(key, key ^ 0xF00D)) rec.add(key, 1);
          } else if (dice < 70) {
            if (t.erase(key)) rec.add(key, -1);
          } else {
            const auto v = t.get(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key ^ 0xF00D);
            }
          }
          ++ops;
        }
        return ops;
      });

  for (std::uint64_t base = 1; base <= kKeySpace; ++base) {
    const std::uint64_t key = base * (0x9E3779B97F4A7C15ull | 1);
    const std::int64_t net = oracle.net(key);
    ASSERT_TRUE(net == 0 || net == 1) << "oracle accounting bug at " << key;
    EXPECT_EQ(t.get(key).has_value(), net == 1) << "divergence at key " << key;
  }

  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [key, value] : t.items()) {
    EXPECT_TRUE(first || key > prev) << "order violation at key " << key;
    EXPECT_EQ(value, key ^ 0xF00D);
    prev = key;
    first = false;
  }

  EXPECT_GT(total_ops, 0u);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "all retired nodes/descriptors must drain once threads quiesce";
}

}  // namespace
}  // namespace llxscx
