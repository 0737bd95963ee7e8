// Chromatic tree on LLX/SCX (DESIGN.md §11): sequential semantics, the
// chromatic invariants (external shape, key order, leaf weights,
// no red-red / no overweight after quiescence, weighted-path equality)
// via consistency_error(), the O(log n) sequential-insert depth pinned
// against the unbalanced BST's linear depth, deterministic rebalancing
// shapes, a 4-thread locked-oracle stress, and a small-key-space churn
// that recycles rotation sections' storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

TEST(Chromatic, EmptyTreeHasNoKeys) {
  LlxScxChromatic t;
  EXPECT_FALSE(t.get(1).has_value());
  EXPECT_FALSE(t.get(0).has_value());
  EXPECT_FALSE(t.erase(1));
  EXPECT_TRUE(t.items().empty());
  EXPECT_EQ(t.consistency_error(), std::nullopt);
}

TEST(Chromatic, InsertGetEraseRoundTrip) {
  LlxScxChromatic t;
  EXPECT_TRUE(t.insert(42, 420));
  EXPECT_FALSE(t.insert(42, 999)) << "insert is insert-if-absent";
  ASSERT_TRUE(t.get(42).has_value());
  EXPECT_EQ(*t.get(42), 420u) << "duplicate insert must not overwrite";
  EXPECT_FALSE(t.get(41).has_value());
  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_FALSE(t.get(42).has_value());
  EXPECT_EQ(t.consistency_error(), std::nullopt);
  Epoch::drain_all_for_testing();
}

TEST(Chromatic, ShuffledInsertEraseKeepsSortedItemsAndInvariants) {
  constexpr std::uint64_t kN = 1024;
  std::vector<std::uint64_t> keys(kN);
  for (std::uint64_t i = 0; i < kN; ++i) keys[i] = 3 * i + 1;
  std::mt19937_64 rng(7);
  std::shuffle(keys.begin(), keys.end(), rng);

  LlxScxChromatic t;
  for (std::uint64_t k : keys) ASSERT_TRUE(t.insert(k, k * 2));
  ASSERT_EQ(t.consistency_error(), std::nullopt);
  auto items = t.items();
  ASSERT_EQ(items.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(items[i].first, 3 * i + 1);
    EXPECT_EQ(items[i].second, (3 * i + 1) * 2);
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    if (keys[i] % 2 == 0) {
      ASSERT_TRUE(t.erase(keys[i]));
    }
  }
  ASSERT_EQ(t.consistency_error(), std::nullopt)
      << "erase rebalancing must leave zero violations";
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(t.get(keys[i]).has_value(), keys[i] % 2 == 1);
  }
  Epoch::drain_all_for_testing();
}

// The balance claim itself, pinned as numbers: sequential (ascending)
// inserts drive the plain external BST to a linear chain, while the
// chromatic tree's rebalancing keeps every leaf within the red-black
// height bound 2·log2(n+1) + O(1).
TEST(Chromatic, SequentialInsertDepthIsLogarithmic) {
  constexpr std::uint64_t kN = 4096;

  LlxScxChromatic balanced;
  LlxScxBst chain;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    ASSERT_TRUE(balanced.insert(k, k));
    ASSERT_TRUE(chain.insert(k, k));
  }
  ASSERT_EQ(balanced.consistency_error(), std::nullopt)
      << "quiescent chromatic tree must be violation-free (= red-black)";

  const TreeDepthStats b = balanced.depth_stats();
  const TreeDepthStats c = chain.depth_stats();
  ASSERT_EQ(b.user_leaves, kN);
  ASSERT_EQ(c.user_leaves, kN);

  const double log2n = std::log2(static_cast<double>(kN));
  EXPECT_LE(b.max_depth, static_cast<std::size_t>(2.0 * log2n) + 8)
      << "chromatic sequential-insert depth must stay O(log n)";
  EXPECT_GE(c.max_depth, kN / 2)
      << "the unbalanced BST really is the linear strawman here";
  EXPECT_LT(b.max_depth * 16, c.max_depth)
      << "the balance win should be at least an order of magnitude";
  Epoch::drain_all_for_testing();
}

// Deterministic rebalancing cost, uncontended. The first insert creates
// no violation (the replacement internal is red under the black root
// sentinel) and costs exactly the BST's pinned insert shape; the second
// creates a red-red at the tree-root's child, which cleanup resolves
// with one recolor-root SCX (V=⟨root, tree-root⟩, k=2).
TEST(Chromatic, RebalancingScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxChromatic t;

  Stats::reset_mine();
  ASSERT_TRUE(t.insert(1, 10));
  StepCounts d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.cas, 3u) << "violation-free insert: the BST's k+1 with k=2";
  EXPECT_EQ(d.shared_writes, 3u);
  EXPECT_EQ(d.allocations, 3u) << "3 fresh nodes; the SCX reuses its slot";

  Stats::reset_mine();
  ASSERT_TRUE(t.insert(2, 20));
  d = Stats::my_snapshot();
  EXPECT_EQ(d.scx_calls, 2u) << "insert SCX + recolor-root SCX";
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.llx_calls, 4u) << "2 for the insert + 2 for the recolor";
  EXPECT_EQ(d.cas, 6u) << "3 (insert, k=2) + 3 (recolor, k=2)";
  EXPECT_EQ(d.shared_writes, 6u);
  EXPECT_EQ(d.allocations, 4u) << "insert 3, recolor copy 1";
  EXPECT_EQ(t.consistency_error(), std::nullopt);
  Epoch::drain_all_for_testing();
}

TEST(ChromaticStress, MatchesLockedOracleUnderContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 256;

  LlxScxChromatic t;
  testing::KeyedOracle oracle;

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 3000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < 35) {
            if (t.insert(key, key * 10)) rec.add(key, 1);
          } else if (dice < 70) {
            if (t.erase(key)) rec.add(key, -1);
          } else if (dice < 85) {
            const auto v = t.get(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key * 10);
            }
          } else {
            const auto v = t.get_validated(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key * 10);
            }
          }
          ++ops;
        }
        return ops;
      });

  for (std::uint64_t key = 1; key <= kKeySpace; ++key) {
    const std::int64_t net = oracle.net(key);
    ASSERT_TRUE(net == 0 || net == 1) << "oracle accounting bug at " << key;
    EXPECT_EQ(t.get(key).has_value(), net == 1) << "divergence at key " << key;
  }

  // Quiescent structural audit: every completed update has also finished
  // its violation cleanup, so the tree must be a red-black tree again.
  EXPECT_EQ(t.consistency_error(), std::nullopt);

  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [key, value] : t.items()) {
    EXPECT_TRUE(first || key > prev) << "order violation at key " << key;
    EXPECT_EQ(value, key * 10);
    prev = key;
    first = false;
  }

  EXPECT_GT(total_ops, 0u);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "all retired nodes/descriptors must drain once threads quiesce";
}

// Churn on a small key space: rebalancing SCXs retire whole rotation
// sections, so EbrManager's block recycling gets exercised hard; the
// invariants must be indifferent to where node storage comes from.
TEST(ChromaticStress, RecyclingChurnKeepsInvariants) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeySpace = 128;

  BasicLlxScxChromatic<EbrManager> t;
  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 4000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = 1 + rng.below(kKeySpace);
          if (rng.percent(50)) {
            t.insert(key, key * 7);
          } else {
            t.erase(key);
          }
          ++ops;
        }
        return ops;
      });

  EXPECT_GT(total_ops, 0u);
  EXPECT_EQ(t.consistency_error(), std::nullopt);
  for (const auto& [key, value] : t.items()) EXPECT_EQ(value, key * 7);
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx
