// Cross-engine container conformance (DESIGN.md §9, §12): one typed gtest
// suite instantiated over EVERY LlxScxContainer — the seven structures AND
// ShardedMap wrapped around each — replacing the per-structure basic
// sections that used to be copy-pasted across test binaries. This is the
// gate any future engine must pass: satisfy the concept, honor the
// insert/erase/contains return contract, report exact quiescent sizes,
// leave the epoch fully drained at teardown, and survive a 4-thread
// locked-oracle stress.
//
// Semantics differ by family, captured in two trait bits derived from the
// underlying engine (sharded wrappers inherit their engine's semantics):
//   kDupInsertReturnsTrue  — multiset/stack/queue accept duplicates
//                            (insert always true); maps reject (false).
//   kKeyedErase            — maps/multiset remove BY KEY; stack/queue
//                            document key-independent removal
//                            (pop/dequeue), so their oracle is global
//                            push/pop conservation, not per-key nets.
//
// All inserts here use value/count 1 so "elements" and "size()" agree for
// the multiset (its insert(key, v) adds v copies).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "ds/queue_llxscx.h"
#include "ds/stack_llxscx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/sharded_map.h"
#include "util/random.h"

#include "tests/test_common.h"
#include "tests/test_engines.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace llxscx {
namespace {

template <class C>
constexpr bool kDupInsertReturnsTrue = kIsSeq<C> || kIsBag<C>;
template <class C>
constexpr bool kIsSharded = !std::is_same_v<C, engine_t<C>>;

template <class C>
class ContainerConformance : public ::testing::Test {};

TYPED_TEST_SUITE(ContainerConformance, Containers);

TYPED_TEST(ContainerConformance, SatisfiesConceptWithStableName) {
  static_assert(LlxScxContainer<TypeParam>);
  EXPECT_STRNE(TypeParam::kName, "");
  if constexpr (kIsSharded<TypeParam>) {
    // The compile-time name composition: "sharded+" ⊕ engine name.
    const std::string name = TypeParam::kName;
    EXPECT_EQ(name, std::string("sharded+") + engine_t<TypeParam>::kName);
  }
}

TYPED_TEST(ContainerConformance, EmptyContainerBehaves) {
  {
    TypeParam c;
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.contains(7));
    EXPECT_FALSE(c.erase(7));  // nothing to remove, keyed or not
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

TYPED_TEST(ContainerConformance, InsertContainsEraseRoundTrip) {
  {
    TypeParam c;
    EXPECT_TRUE(c.insert(42, 1));
    EXPECT_TRUE(c.contains(42));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_TRUE(c.erase(42));
    EXPECT_FALSE(c.contains(42));
    EXPECT_EQ(c.size(), 0u);
    if constexpr (kKeyedErase<TypeParam>) {
      EXPECT_FALSE(c.erase(42));  // absent again
    }
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

TYPED_TEST(ContainerConformance, DuplicateInsertFollowsFamilySemantics) {
  {
    TypeParam c;
    EXPECT_TRUE(c.insert(5, 1));
    EXPECT_EQ(c.insert(5, 1), kDupInsertReturnsTrue<TypeParam>);
    EXPECT_TRUE(c.contains(5));
    EXPECT_EQ(c.size(), kDupInsertReturnsTrue<TypeParam> ? 2u : 1u);
    EXPECT_TRUE(c.erase(5));
    EXPECT_EQ(c.contains(5), kDupInsertReturnsTrue<TypeParam>);
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// The pinned size() contract (container_api.h): exact when quiescent.
// Deterministic single-thread mix first; the stress below re-asserts it
// after 4 contending workers JOIN (the quiescence satellite).
TYPED_TEST(ContainerConformance, SizeIsExactWhenQuiescent) {
  {
    TypeParam c;
    constexpr std::uint64_t kN = 300;
    for (std::uint64_t k = 1; k <= kN; ++k) EXPECT_TRUE(c.insert(k, 1));
    EXPECT_EQ(c.size(), kN);
    std::uint64_t removed = 0;
    for (std::uint64_t k = 1; k <= kN; k += 3) removed += c.erase(k) ? 1 : 0;
    EXPECT_EQ(c.size(), kN - removed);
    if constexpr (kKeyedErase<TypeParam>) {
      EXPECT_EQ(removed, (kN + 2) / 3);  // every erased key was present
    }
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// 4-thread locked-oracle stress, the shared gate: keyed families check
// net-per-key against a KeyedOracle (contains ⇔ net > 0, size == Σ net);
// sequence families check global push/pop conservation. Both end with the
// quiescent-size assertion and a fully drained epoch.
TYPED_TEST(ContainerConformance, StressMatchesLockedOracle) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 128;  // 1-based: keys 1..128

  {
    TypeParam c;
    testing::KeyedOracle oracle;
    std::atomic<std::uint64_t> pushes{0};
    std::atomic<std::uint64_t> pops{0};

    testing::run_stress_workers(
        kThreads, 7100,
        [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
          testing::KeyedOracle::Recorder rec(oracle);
          std::uint64_t local_push = 0;
          std::uint64_t local_pop = 0;
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key =
                testing::skewed_key(rng, kHotKeys, kKeySpace);
            const unsigned dice = static_cast<unsigned>(rng.below(100));
            if (dice < 50) {
              if (c.insert(key, 1)) {
                rec.add(key, +1);
                ++local_push;
              }
            } else if (dice < 90) {
              if (c.erase(key)) {
                rec.add(key, -1);
                ++local_pop;
              }
            } else {
              (void)c.contains(key);
            }
            ++ops;
          }
          pushes.fetch_add(local_push);
          pops.fetch_add(local_pop);
          return ops;
        });

    // Quiescent now: workers joined, recorders flushed.
    std::int64_t oracle_total = 0;
    if constexpr (kKeyedErase<TypeParam>) {
      for (std::uint64_t k = 1; k <= kKeySpace; ++k) {
        const std::int64_t net = oracle.net(k);
        ASSERT_GE(net, 0) << "oracle net negative for key " << k;
        oracle_total += net;
        EXPECT_EQ(c.contains(k), net > 0) << "key " << k;
      }
      EXPECT_EQ(c.size(), static_cast<std::size_t>(oracle_total));
    } else {
      // pop() ignores the key, so only conservation is meaningful.
      ASSERT_GE(pushes.load(), pops.load());
      EXPECT_EQ(c.size(),
                static_cast<std::size_t>(pushes.load() - pops.load()));
    }
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

#if defined(__GLIBC__)
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

// Live memory under churn is proportional to live keys: two equal rounds
// of single-thread insert/erase churn at a constant size, each followed by
// a drain, must leave the in-use heap where the first round left it. (A
// descriptor scheme whose records keep earlier operations' descriptors
// alive grows it by hundreds of bytes per update.)
TYPED_TEST(ContainerConformance, ChurnHeapStaysBoundedByLiveKeys) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc mallinfo2";
#else
  {
    // Sanitizer allocators bypass the glibc arena mallinfo2 reports on.
    const std::size_t before = heap_in_use();
    std::vector<char> probe(1 << 16, 1);
    if (heap_in_use() < before + probe.size()) {
      GTEST_SKIP() << "allocator not visible to mallinfo2";
    }
  }
  constexpr std::uint64_t kLive = 512;
  constexpr std::uint64_t kSteps = 2048;  // per round; 2 updates per step
  // A bijection on [0, 2^20) that scatters the sliding window's keys, so
  // the unbalanced trees stay shallow.
  const auto key = [](std::uint64_t i) {
    return 1 + ((i * 0x9E3779B1u) & 0xFFFFF);
  };
  TypeParam c;
  std::uint64_t next = 0;
  for (; next < kLive; ++next) ASSERT_TRUE(c.insert(key(next), 1));
  const auto round = [&] {
    // The live set is the window [next - kLive, next): erase its oldest
    // key, insert the next one.
    for (std::uint64_t s = 0; s < kSteps; ++s, ++next) {
      ASSERT_TRUE(c.erase(key(next - kLive)));
      ASSERT_TRUE(c.insert(key(next), 1));
    }
    ASSERT_EQ(drained_outstanding(c), 0u);
  };
  round();
  const std::size_t after_first = heap_in_use();
  round();
  const std::size_t after_second = heap_in_use();
  EXPECT_EQ(c.size(), kLive);
  const double growth_per_update =
      (static_cast<double>(after_second) - static_cast<double>(after_first)) /
      static_cast<double>(2 * kSteps);
  EXPECT_LT(growth_per_update, 32.0)
      << "in-use heap grew " << growth_per_update
      << " B per update at a constant " << kLive << " live keys";
#endif
}

// --- range / scan conformance (DESIGN.md §15) ------------------------------

// container_range over ANY engine equals the sorted filter of a quiescent
// oracle, and the output is strictly ascending — for sharded wrappers the
// ascending check IS the merge-ordered + duplicate-free claim, and the
// surviving prefix pins that the merge writes only past the append point.
// Distinct keys with value/count 1 so every family represents the state
// identically in its ⟨key, value⟩ view.
TYPED_TEST(ContainerConformance, RangeMatchesSortedOracleQuiescent) {
  {
    TypeParam c;
    Xoshiro256 rng(0x7A4E);
    std::set<std::uint64_t> oracle;
    while (oracle.size() < 200) {
      const std::uint64_t k = 1 + rng.below(1000);
      if (oracle.insert(k).second) {
        ASSERT_TRUE(c.insert(k, 1));
      }
    }
    const std::pair<std::uint64_t, std::uint64_t> windows[] = {
        {0, ~std::uint64_t{0}}, {100, 500}, {1, 1}, {900, 2000}, {600, 599}};
    for (const auto& [lo, hi] : windows) {
      RangeOut expect;
      for (const std::uint64_t k : oracle) {
        if (k >= lo && k <= hi) expect.emplace_back(k, 1);
      }
      // range appends: a pair already in `out` must survive untouched (and
      // unsorted against the window, so a merge that strays below the
      // append point shows).
      const std::pair<std::uint64_t, std::uint64_t> prefix{~std::uint64_t{0}, 7};
      RangeOut got{prefix};
      EXPECT_EQ(container_range(c, lo, hi, got), expect.size())
          << "[" << lo << ", " << hi << "]";
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.front(), prefix) << "[" << lo << ", " << hi << "]";
      got.erase(got.begin());
      EXPECT_EQ(got, expect) << "[" << lo << ", " << hi << "]";
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LT(got[i - 1].first, got[i].first)
            << "range output must be strictly ascending (ordered and "
               "duplicate-free)";
      }
    }
    // The bounded scan verbs stay within the engine and within the limit.
    RangeOut sample;
    const std::size_t n = container_scan_n(c, 50, sample);
    EXPECT_EQ(n, 50u);
    for (const auto& [k, v] : sample) {
      EXPECT_TRUE(oracle.count(k)) << "scan_n invented key " << k;
    }
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// Scans under concurrent DISJOINT churn: stable keys 1000, 1002, ... stay
// put while updaters hammer 1..64. Every round's range over the stable
// window must return EXACTLY the stable evens — a never-inserted key in
// the window (or a missing stable key) is a torn read. Keyed families
// only: sequence erase pops arbitrary elements, so nothing is stable.
// Ends with the drain-to-zero assertion: scans must not strand garbage.
TYPED_TEST(ContainerConformance, RangeStableUnderDisjointChurn) {
  if constexpr (!kKeyedErase<TypeParam>) {
    GTEST_SKIP() << "sequence pops are key-independent — no stable window";
  } else {
    constexpr std::uint64_t kStableBase = 1000;
    constexpr std::size_t kStable = 64;  // evens present, odds never inserted
    constexpr int kUpdaters = 2;
    {
      TypeParam c;
      for (std::size_t i = 0; i < kStable; i += 2) {
        ASSERT_TRUE(c.insert(kStableBase + i, 1));
      }
      std::atomic<bool> stop{false};
      std::vector<std::thread> updaters;
      for (int t = 0; t < kUpdaters; ++t) {
        updaters.emplace_back([&c, &stop, t] {
          Xoshiro256 rng(0x5CAA + static_cast<unsigned>(t));
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key = 1 + rng.below(64);  // disjoint range
            if (rng.percent(50)) {
              c.insert(key, 1);
            } else {
              c.erase(key);
            }
          }
        });
      }
      RangeOut got;
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(
              std::max<std::uint64_t>(100, testing::stress_millis() / 4));
      std::uint64_t rounds = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        got.clear();
        const std::size_t n =
            container_range(c, kStableBase, kStableBase + kStable - 1, got);
        ASSERT_EQ(n, kStable / 2) << "round " << rounds;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].first, kStableBase + 2 * i)
              << "round " << rounds
              << ": stable window torn (wrong/missing/invented key)";
        }
        ++rounds;
      }
      stop.store(true);
      for (auto& th : updaters) th.join();
      EXPECT_GT(rounds, 0u);
      EXPECT_EQ(drained_outstanding(c), 0u) << "drain-to-zero after scans";
    }
    Epoch::drain_all_for_testing();
    EXPECT_EQ(Epoch::outstanding(), 0u);
  }
}

// --- Sentinel keys ------------------------------------------------------------
//
// Keys at or above a tree's sentinel bound belong to its sentinel leaves:
// an update of one aborts, naming the key and the bound, and a read answers
// absent. Range bounds stay unrestricted.
using Trees = ::testing::Types<LlxScxBst, LlxScxPatricia, LlxScxChromatic>;

// kInf1 and kInf2 (the bound is kInf1), or Patricia's one all-ones key.
template <class T>
std::vector<std::uint64_t> sentinel_keys() {
  if constexpr (requires { T::kInf1; }) {
    return {T::kInf1, T::kInf2};
  } else {
    return {T::kSentinelKey};
  }
}

template <class T>
std::string rejection(std::uint64_t key) {
  return "key " + std::to_string(key) + " is at or above the sentinel bound " +
         std::to_string(sentinel_keys<T>()[0]);
}

template <class T>
class TreeSentinels : public ::testing::Test {};
TYPED_TEST_SUITE(TreeSentinels, Trees);

TYPED_TEST(TreeSentinels, ReadsAnswerAbsent) {
  {
    TypeParam t;
    ASSERT_TRUE(t.insert(5, 1));
    for (std::uint64_t k : sentinel_keys<TypeParam>()) {
      EXPECT_FALSE(t.contains(k)) << k;
      EXPECT_FALSE(t.get(k).has_value()) << k;
      bool hit = true;
      t.multi_get(&k, 1, &hit);
      EXPECT_FALSE(hit) << k;
    }
    RangeOut out;
    EXPECT_EQ(t.range(0, ~std::uint64_t{0}, out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 5u);
  }
  Epoch::drain_all_for_testing();
}

template <class T>
class TreeSentinelDeathTest : public ::testing::Test {};
TYPED_TEST_SUITE(TreeSentinelDeathTest, Trees);

TYPED_TEST(TreeSentinelDeathTest, InsertAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::uint64_t k : sentinel_keys<TypeParam>()) {
    TypeParam t;
    EXPECT_DEATH(t.insert(k, 1), rejection<TypeParam>(k));
  }
}

TYPED_TEST(TreeSentinelDeathTest, InsertAllAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::uint64_t k : sentinel_keys<TypeParam>()) {
    TypeParam t;
    const std::uint64_t run[] = {3, 4, k};
    EXPECT_DEATH(t.insert_all(run, 3, 1), rejection<TypeParam>(k));
  }
}

// Empty and holding 5: on {5}, erase(kInf1) used to return true and
// unlink the sentinel leaf, after which insert(7), erase(5) left a tree
// where erase(7) returned false while contains(7) was true.
TYPED_TEST(TreeSentinelDeathTest, EraseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::uint64_t k : sentinel_keys<TypeParam>()) {
    TypeParam t;
    EXPECT_DEATH(t.erase(k), rejection<TypeParam>(k));
    ASSERT_TRUE(t.insert(5, 1));
    EXPECT_DEATH(t.erase(k), rejection<TypeParam>(k));
  }
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx
