// External BST on LLX/SCX (E6's structure): sequential semantics, the
// pinned tree-update SCX shapes from DESIGN.md §8, and a 4-thread oracle
// stress mirroring test_multiset_stress.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "ds/bst_llxscx.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

TEST(Bst, EmptyTreeHasNoKeys) {
  LlxScxBst t;
  EXPECT_FALSE(t.get(1).has_value());
  EXPECT_FALSE(t.get(0).has_value());
  EXPECT_FALSE(t.erase(1));
  EXPECT_TRUE(t.items().empty());
}

TEST(Bst, InsertGetEraseRoundTrip) {
  LlxScxBst t;
  EXPECT_TRUE(t.insert(42, 420));
  EXPECT_FALSE(t.insert(42, 999)) << "insert is insert-if-absent";
  ASSERT_TRUE(t.get(42).has_value());
  EXPECT_EQ(*t.get(42), 420u) << "duplicate insert must not overwrite";
  EXPECT_FALSE(t.get(41).has_value());
  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_FALSE(t.get(42).has_value());
  Epoch::drain_all_for_testing();
}

TEST(Bst, LargestUserKeyBelowSentinelsWorks) {
  LlxScxBst t;
  const std::uint64_t k = LlxScxBst::kInf1 - 1;
  EXPECT_TRUE(t.insert(k, 7));
  EXPECT_TRUE(t.insert(0, 8));
  EXPECT_EQ(*t.get(k), 7u);
  EXPECT_EQ(*t.get(0), 8u);
  EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(*t.get(0), 8u);
  Epoch::drain_all_for_testing();
}

TEST(Bst, ShuffledInsertEraseKeepsSortedItems) {
  constexpr std::uint64_t kN = 512;
  std::vector<std::uint64_t> keys(kN);
  for (std::uint64_t i = 0; i < kN; ++i) keys[i] = 3 * i + 1;
  std::mt19937_64 rng(7);
  std::shuffle(keys.begin(), keys.end(), rng);

  LlxScxBst t;
  for (std::uint64_t k : keys) ASSERT_TRUE(t.insert(k, k * 2));
  auto items = t.items();
  ASSERT_EQ(items.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(items[i].first, 3 * i + 1);
    EXPECT_EQ(items[i].second, (3 * i + 1) * 2);
  }
  // Erase every other key (in shuffled order) and re-check.
  for (std::uint64_t i = 0; i < kN; ++i) {
    if (keys[i] % 2 == 0) {
      ASSERT_TRUE(t.erase(keys[i]));
    }
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(t.get(keys[i]).has_value(), keys[i] % 2 == 1);
  }
  Epoch::drain_all_for_testing();
}

TEST(Bst, DegenerateAscendingChainSurvivesTeardown) {
  // Monotone inserts build a maximally unbalanced external tree; this
  // pins the iterative destructor/items paths (no stack recursion).
  auto t = std::make_unique<LlxScxBst>();
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t i = 1; i <= kN; ++i) ASSERT_TRUE(t->insert(i, i));
  EXPECT_EQ(t->items().size(), kN);
  t.reset();
  Epoch::drain_all_for_testing();
}

// DESIGN.md §8: insert is SCX(V=⟨p,l⟩, R=⟨l⟩) — k=2 ⇒ 3 CAS, f=1 ⇒ 3
// shared writes; delete is SCX(V=⟨gp,p,s⟩, R=⟨p,s⟩) — k=3 ⇒ 4 CAS, f=2 ⇒
// 4 shared writes. Uncontended, so no retries inflate the counts.
TEST(Bst, TreeUpdateScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxBst t;
  ASSERT_TRUE(t.insert(10, 1));
  ASSERT_TRUE(t.insert(20, 2));

  Stats::reset_mine();
  ASSERT_TRUE(t.insert(15, 3));
  StepCounts d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "insert: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "insert: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 3u) << "3 fresh nodes; the SCX reuses its slot";
  EXPECT_EQ(d.retires, 1u) << "R = ⟨l⟩";

  Stats::reset_mine();
  ASSERT_TRUE(t.erase(15));
  d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "delete: k+1 CAS with k=3";
  EXPECT_EQ(d.shared_writes, 4u) << "delete: f+2 writes with f=2";
  EXPECT_EQ(d.allocations, 1u) << "1 fresh sibling copy";
  EXPECT_EQ(d.retires, 3u) << "R = ⟨p, s⟩ plus the orphaned leaf";
  Epoch::drain_all_for_testing();
}

TEST(BstStress, MatchesLockedOracleUnderContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 256;

  LlxScxBst t;
  // Net membership per key: +1 per successful insert, −1 per successful
  // erase. Successes alternate per key, so the net is exactly 0 or 1 and
  // equals the final membership under any interleaving.
  testing::KeyedOracle oracle;

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 2000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
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
              // Values are derived from keys, so a torn or stale node would
              // show up right here.
              EXPECT_EQ(*v, key * 10);
            }
          } else {
            // A one-key VLX-validated range must agree with the same
            // invariant: a validated reader running under contention.
            w.clear();
            t.range(key, key, w);
            EXPECT_LE(w.size(), 1u);
            for (const auto& [k, v] : w) {
              EXPECT_EQ(k, key);
              EXPECT_EQ(v, key * 10);
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

  // Structural sanity: strictly sorted user keys.
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

}  // namespace
}  // namespace llxscx
