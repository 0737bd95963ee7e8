// Sharded front-end behavior (DESIGN.md §12) beyond the generic
// conformance gate: routing determinism and spread, shard-count rounding,
// cross-shard size() consistency under real contention, the per-shard
// epoch INDEPENDENCE property the whole layer exists for (a guard pinned
// on shard A must not stop shard B from draining), the degenerate
// all-traffic-on-one-shard regime, range()'s slice merge at every width,
// a recycling engine draining under the front-end, and the steps_of
// aggregation story (routing adds zero shared steps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/sharded_map.h"
#include "util/random.h"
#include "util/stats.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

using ShardedHashMap = ShardedMap<LlxScxHashMap>;

// Degenerate router for the skew test: every key lands on shard 0.
struct PinnedSplitter {
  std::size_t operator()(std::uint64_t, std::size_t) const { return 0; }
};

TEST(ShardedMap, RoutingIsDeterministicAndInBounds) {
  ShardedHashMap m(4);
  ASSERT_EQ(m.shard_count(), 4u);
  std::set<std::size_t> hit;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::size_t s = m.shard_for(k);
    ASSERT_LT(s, m.shard_count());
    ASSERT_EQ(s, m.shard_for(k));  // same key, same shard, every time
    hit.insert(s);
  }
  // The Fibonacci high-bits splitter must actually spread dense keys.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardedMap, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedHashMap(0).shard_count(), 1u);
  EXPECT_EQ(ShardedHashMap(1).shard_count(), 1u);
  EXPECT_EQ(ShardedHashMap(3).shard_count(), 4u);
  EXPECT_EQ(ShardedHashMap(8).shard_count(), 8u);
}

TEST(ShardedMap, InsertsLandOnTheShardTheSplitterNames) {
  ShardedHashMap m(4);
  for (std::uint64_t k = 1; k <= 512; ++k) ASSERT_TRUE(m.insert(k, k));
  std::size_t per_shard_total = 0;
  m.for_each_shard([&](std::size_t i, const LlxScxHashMap& engine,
                       DomainReclaimStats) {
    for (std::uint64_t k = 1; k <= 512; ++k) {
      EXPECT_EQ(engine.contains(k), m.shard_for(k) == i) << "key " << k;
    }
    per_shard_total += engine.size();
  });
  EXPECT_EQ(per_shard_total, 512u);
  EXPECT_EQ(m.size(), 512u);
}

// Cross-shard size() consistency under concurrent updates: after workers
// join, the front-end sum, the per-shard engine sizes, and the locked
// oracle must all agree exactly (the quiescent-size contract, sharded).
TEST(ShardedMap, CrossShardSizeMatchesOracleAfterContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 256;

  ShardedHashMap m(4);
  testing::KeyedOracle oracle;
  testing::run_stress_workers(
      kThreads, 7200,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace);
          if (rng.percent(55)) {
            if (m.insert(key, key)) rec.add(key, +1);
          } else {
            if (m.erase(key)) rec.add(key, -1);
          }
          ++ops;
        }
        return ops;
      });

  std::int64_t oracle_total = 0;
  for (std::uint64_t k = 1; k <= kKeySpace; ++k) {
    const std::int64_t net = oracle.net(k);
    ASSERT_GE(net, 0);
    oracle_total += net;
    EXPECT_EQ(m.contains(k), net > 0) << "key " << k;
  }
  std::size_t per_shard_total = 0;
  m.for_each_shard([&](std::size_t, const LlxScxHashMap& engine,
                       DomainReclaimStats) { per_shard_total += engine.size(); });
  EXPECT_EQ(per_shard_total, static_cast<std::size_t>(oracle_total));
  EXPECT_EQ(m.size(), static_cast<std::size_t>(oracle_total));

  m.drain_all();
  EXPECT_EQ(m.reclaim_outstanding(), 0u);
}

// THE property this layer buys (ISSUE acceptance): a guard pinned on one
// shard's domain blocks only that shard's reclamation. Churn on another
// shard drains to zero while the pin is live; the pinned shard's limbo
// stays put until the pin drops.
TEST(ShardedMap, GuardOnOneShardDoesNotBlockAnotherShardsDrain) {
  ShardedHashMap m(4);
  // Two keys on different shards.
  const std::uint64_t ka = 1;
  std::uint64_t kb = 2;
  while (m.shard_for(kb) == m.shard_for(ka)) ++kb;
  const std::size_t a = m.shard_for(ka);
  const std::size_t b = m.shard_for(kb);

  // Pin shard A: the guard binds to the domain current at construction
  // and keeps pinning it after the scope unwinds (epoch.h rule 1).
  std::optional<Epoch::Guard> pin;
  {
    Epoch::DomainScope scope(m.shard_domain(a));
    pin.emplace();
  }

  // Churn shard B, then drain it: must go to zero despite A's pin.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m.insert(kb, 1));
    ASSERT_TRUE(m.erase(kb));
  }
  m.shard_domain(b).drain();
  EXPECT_EQ(m.shard_domain(b).outstanding(), 0u);

  // Churn shard A: its retires are stamped after the pin's reservation,
  // so they must survive a drain while the pin lives…
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m.insert(ka, 1));
    ASSERT_TRUE(m.erase(ka));
  }
  m.shard_domain(a).drain();
  EXPECT_GT(m.shard_domain(a).outstanding(), 0u);

  // …and drain fully once it drops.
  pin.reset();
  m.shard_domain(a).drain();
  EXPECT_EQ(m.shard_domain(a).outstanding(), 0u);
}

// Skewed regime: a splitter that routes ALL traffic to shard 0 degrades
// the front-end to a single instance — it must stay correct and live (no
// deadlock/livelock), and the idle shards must stay empty.
TEST(ShardedMap, AllTrafficOnOneShardDegradesToSingleInstance) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 128;

  ShardedMap<LlxScxHashMap, PinnedSplitter> m(4);
  testing::KeyedOracle oracle;
  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 7300,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace);
          if (rng.percent(50)) {
            if (m.insert(key, key)) rec.add(key, +1);
          } else {
            if (m.erase(key)) rec.add(key, -1);
          }
          ++ops;
        }
        return ops;
      });
  EXPECT_GT(total_ops, 0u);

  std::int64_t oracle_total = 0;
  for (std::uint64_t k = 1; k <= kKeySpace; ++k) oracle_total += oracle.net(k);
  EXPECT_EQ(m.size(), static_cast<std::size_t>(oracle_total));
  m.for_each_shard([&](std::size_t i, const LlxScxHashMap& engine,
                       DomainReclaimStats) {
    if (i != 0) {
      EXPECT_EQ(engine.size(), 0u) << "shard " << i;
    }
  });

  m.drain_all();
  EXPECT_EQ(m.reclaim_outstanding(), 0u);
}

// range() merges k = 1, 2, 4 and 16 ascending shard slices (0, 1, 2 and 4
// pairwise levels) into exactly the oracle's window. At widths ≥ 4 no key
// routes to a shard whose index is 1 mod 3, so some slices are always
// empty; narrow windows empty more of them at every width. The windows
// also cover lo > hi, single keys, and hi = 2^64 − 1 with keys near the
// top of the user key space.
TEST(ShardedMap, RangeMergesEveryWidthLikeTheOracle) {
  constexpr std::uint64_t kTop = LlxScxChromatic::kInf1 - 1;
  for (const std::size_t width : {1u, 2u, 4u, 16u}) {
    ShardedMap<LlxScxChromatic> m(width);
    ASSERT_EQ(m.shard_count(), width);
    Xoshiro256 rng(0x5A4D + width);
    std::set<std::uint64_t> oracle;
    const auto add = [&](std::uint64_t k) {
      if (width >= 4 && m.shard_for(k) % 3 == 1) return;
      if (oracle.insert(k).second) {
        ASSERT_TRUE(m.insert(k, k ^ 0x5A));
      }
    };
    for (int i = 0; i < 400; ++i) add(1 + rng.below(4000));
    for (std::uint64_t k = kTop - 40; k <= kTop; ++k) add(k);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
        {0, ~std::uint64_t{0}}, {kTop - 20, ~std::uint64_t{0}},
        {4001, kTop - 41},      {700, 699},
        {~std::uint64_t{0}, 0}, {*oracle.begin(), *oracle.begin()}};
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t lo = rng.below(4200);
      windows.emplace_back(lo, lo + rng.below(i % 2 == 0 ? 16 : 600));
    }
    RangeOut got;
    for (const auto& [lo, hi] : windows) {
      RangeOut want;
      for (auto it = oracle.lower_bound(lo);
           lo <= hi && it != oracle.end() && *it <= hi; ++it) {
        want.emplace_back(*it, *it ^ 0x5A);
      }
      got.clear();
      EXPECT_EQ(m.range(lo, hi, got), want.size())
          << "width " << width << " [" << lo << ", " << hi << "]";
      EXPECT_EQ(got, want) << "width " << width << " [" << lo << ", " << hi
                           << "]";
    }
  }
}

// Every shard's retired nodes drain to zero through its own domain while
// the engine's policy recycles their blocks.
TEST(ShardedMap, RecyclingEngineDrainsUnderTheFrontEnd) {
  ShardedMap<BasicLlxScxHashMap<EbrManager>> m(2);
  for (std::uint64_t k = 1; k <= 200; ++k) ASSERT_TRUE(m.insert(k, k));
  for (std::uint64_t k = 1; k <= 200; ++k) ASSERT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 0u);
  m.drain_all();
  EXPECT_EQ(m.reclaim_outstanding(), 0u);
}

// steps_of aggregation (container_api.h): shards share the calling
// thread's StepCounts, so one steps_of around a routed op sees the
// engine's full shared-step cost — routing itself adds none.
TEST(ShardedMap, StepsOfSeesTheRoutedOperation) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    ShardedHashMap m(4);
    const StepCounts ins = steps_of([&] { ASSERT_TRUE(m.insert(9, 9)); });
    EXPECT_GT(ins.scx_calls, 0u);
    EXPECT_GT(ins.cas, 0u);
    const StepCounts hit = steps_of([&] { ASSERT_TRUE(m.contains(9)); });
    EXPECT_EQ(hit.scx_calls, 0u);  // Proposition 2: reads stay CAS-free
    EXPECT_EQ(hit.cas, 0u);
    EXPECT_GT(hit.shared_reads, 0u);
  }
}

}  // namespace
}  // namespace llxscx
