// Chromatic tree on LLX/SCX (DESIGN.md §11): sequential semantics, the
// chromatic invariants (external shape, key order, leaf weights,
// no red-red / no overweight after quiescence, weighted-path equality)
// via consistency_error(), the O(log n) sequential-insert depth pinned
// against the unbalanced BST's linear depth, deterministic rebalancing
// shapes, a 4-thread locked-oracle stress, and a small-key-space churn
// that recycles rotation sections' storage. Three typed suites run over
// every tree: LeafValues (a leaf keeps its value in its left child slot,
// and values a layout could mistake for a child must survive every read
// and copy), RoutingBoundary (the key-routed step's pick at present keys
// and their neighbours) and FailedUpdates (an insert of a present key and
// an erase of an absent key take no LLX).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/patricia_llxscx.h"
#include "service/sharded_map.h"
#include "util/random.h"

#include "tests/test_common.h"
#include "tests/test_engines.h"

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

// The one whole-tree walk, pinned exactly on every tree: two
// deterministic single-threaded trees — ascending 1..4096 with every third
// key erased, and a fixed Xoshiro draw (4096 inserts of keys below 2^20,
// then the first 1024 draws erased) — must report the oracle's user-leaf
// count and ascending ⟨key, value⟩ list, and the exact depth profile each
// engine reported before size(), items(), depth_stats() and teardown
// shared one walker (avg_depth = depth_sum / user_leaves).
struct WalkPin {
  std::size_t user_leaves;
  std::size_t max_depth;
  std::uint64_t depth_sum;
};

template <class Tree>
void expect_walk_pinned(const Tree& t,
                        const std::map<std::uint64_t, std::uint64_t>& oracle,
                        const WalkPin& pin) {
  EXPECT_EQ(t.size(), pin.user_leaves) << Tree::kName;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
      oracle.begin(), oracle.end());
  EXPECT_EQ(t.items(), want) << Tree::kName;
  const TreeDepthStats d = t.depth_stats();
  EXPECT_EQ(d.user_leaves, pin.user_leaves) << Tree::kName;
  EXPECT_EQ(d.max_depth, pin.max_depth) << Tree::kName;
  EXPECT_DOUBLE_EQ(d.avg_depth, static_cast<double>(pin.depth_sum) /
                                    static_cast<double>(pin.user_leaves))
      << Tree::kName << ": depth sum "
      << d.avg_depth * static_cast<double>(d.user_leaves);
}

template <class Tree>
void expect_walks_pinned(const WalkPin& ascending, const WalkPin& drawn) {
  {
    Tree t;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t k = 1; k <= 4096; ++k) {
      ASSERT_TRUE(t.insert(k, 5 * k + 1));
      oracle.emplace(k, 5 * k + 1);
    }
    for (std::uint64_t k = 3; k <= 4096; k += 3) {
      ASSERT_TRUE(t.erase(k));
      oracle.erase(k);
    }
    expect_walk_pinned(t, oracle, ascending);
  }
  {
    Tree t;
    std::map<std::uint64_t, std::uint64_t> oracle;
    Xoshiro256 rng(20130722);
    std::vector<std::uint64_t> keys(4096);
    for (std::uint64_t& k : keys) {
      k = 1 + rng.below(std::uint64_t{1} << 20);
      t.insert(k, 5 * k + 1);
      oracle.emplace(k, 5 * k + 1);
    }
    for (std::size_t i = 0; i < 1024; ++i) {
      t.erase(keys[i]);
      oracle.erase(keys[i]);
    }
    expect_walk_pinned(t, oracle, drawn);
  }
  Epoch::drain_all_for_testing();
}

TEST(TreeWalk, BstPinned) {
  expect_walks_pinned<LlxScxBst>({2731, 2732, 3736007}, {3065, 31, 57903});
}

TEST(TreeWalk, PatriciaPinned) {
  expect_walks_pinned<LlxScxPatricia>({2731, 15, 39587},
                                      {3065, 18, 42654});
}

TEST(TreeWalk, ChromaticPinned) {
  expect_walks_pinned<LlxScxChromatic>({2731, 13, 34139},
                                       {3065, 15, 39554});
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
  EXPECT_EQ(d.retires, 1u) << "the insert's R = ⟨l⟩";

  Stats::reset_mine();
  ASSERT_TRUE(t.insert(2, 20));
  d = Stats::my_snapshot();
  EXPECT_EQ(d.scx_calls, 2u) << "insert SCX + recolor-root SCX";
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.llx_calls, 4u) << "2 for the insert + 2 for the recolor";
  EXPECT_EQ(d.cas, 6u) << "3 (insert, k=2) + 3 (recolor, k=2)";
  EXPECT_EQ(d.shared_writes, 6u);
  EXPECT_EQ(d.allocations, 4u) << "insert 3, recolor copy 1";
  EXPECT_EQ(d.retires, 2u) << "insert R = ⟨l⟩, recolor R = ⟨tree-root⟩";
  EXPECT_EQ(t.consistency_error(), std::nullopt);
  Epoch::drain_all_for_testing();
}

// --- Leaf values: a leaf's value lives in its left child slot --------------
//
// Every tree keeps a leaf's value in the slot where an interior node keeps
// its left child (DESIGN.md §11). The values below would break a layout
// that confused the two: 0 and 1 (null and a misaligned pointer), 2^63 and
// ~0 (non-canonical addresses), and the address of a live node of the
// tree's own type (a walk that followed it would land on a real leaf).
// Each must come back unchanged through get, multi_get's lanes, range,
// items() and insert_all's bulk build, after erasing neighbours (the
// sibling copy), after the re-inserts and erases that run chromatic
// cleanup's leaf recolor copies (PUSH, W-ROT, W-DBL), and through a
// 2-thread churn checked against a locked oracle.

template <class Node>
std::unique_ptr<Node> live_leaf() {
  if constexpr (std::is_same_v<Node, ChromaticNode>) {
    return std::make_unique<Node>(7, 7, 1u);
  } else {
    return std::make_unique<Node>(7, 7);
  }
}

// ShardedMap serves neither get() nor items(): read them shard by shard.
template <class C>
std::optional<std::uint64_t> tree_get(const C& c, std::uint64_t key) {
  if constexpr (requires { c.get(key); }) {
    return c.get(key);
  } else {
    std::optional<std::uint64_t> v;
    c.for_each_shard([&](std::size_t i, const auto& e, auto) {
      if (i == c.shard_for(key)) v = e.get(key);
    });
    return v;
  }
}

template <class C>
RangeOut tree_items(const C& c) {
  if constexpr (HasItems<C>) {
    return c.items();
  } else {
    RangeOut all;
    c.for_each_shard([&](std::size_t, const auto& e, auto) {
      const RangeOut part = e.items();
      all.insert(all.end(), part.begin(), part.end());
    });
    std::sort(all.begin(), all.end());
    return all;
  }
}

// The chromatic audit, shard by shard for ShardedMap; the BST and the
// Patricia trie have none.
template <class C>
std::optional<std::string> tree_audit(const C& c) {
  if constexpr (requires { c.consistency_error(); }) {
    return c.consistency_error();
  } else if constexpr (requires(const engine_t<C>& e) {
                         e.consistency_error();
                       }) {
    std::optional<std::string> err;
    c.for_each_shard([&](std::size_t, const auto& e, auto) {
      if (!err) err = e.consistency_error();
    });
    return err;
  } else {
    return std::nullopt;
  }
}

template <class C>
class LeafValues : public ::testing::Test {};
using EveryTree = ::testing::Types<LlxScxBst, LlxScxPatricia, LlxScxChromatic,
                                   ShardedMap<LlxScxChromatic>>;
TYPED_TEST_SUITE(LeafValues, EveryTree);

TYPED_TEST(LeafValues, SurviveEveryTreePath) {
  using Node = typename engine_t<TypeParam>::Node;
  const std::unique_ptr<Node> live = live_leaf<Node>();
  const std::uint64_t vals[] = {0, 1, std::uint64_t{1} << 63,
                                ~std::uint64_t{0},
                                reinterpret_cast<std::uint64_t>(live.get())};
  constexpr std::uint64_t kNumVals = std::size(vals);
  const auto val = [&](std::uint64_t k) { return vals[k % kNumVals]; };
  constexpr std::uint64_t kKeys = 1000;

  // Every read path against the expected ⟨key, val(key)⟩ set.
  const auto expect_values = [&](const TypeParam& t, auto present,
                                 const char* when) {
    RangeOut want;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= kKeys + 8; ++k) {
      keys.push_back(k);
      if (k <= kKeys && present(k)) want.emplace_back(k, val(k));
    }
    for (std::uint64_t k : keys) {
      const auto v = tree_get(t, k);
      ASSERT_EQ(v.has_value(), k <= kKeys && present(k)) << when << " " << k;
      if (v) {
        ASSERT_EQ(*v, val(k)) << when << " get " << k;
      }
    }
    std::unique_ptr<bool[]> hit(new bool[keys.size()]);
    t.multi_get(keys.data(), keys.size(), hit.get());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(hit[i], tree_get(t, keys[i]).has_value())
          << when << " multi_get " << keys[i];
    }
    RangeOut got;
    t.range(0, kKeys + 8, got);
    EXPECT_EQ(got, want) << when << " range";
    EXPECT_EQ(tree_items(t), want) << when << " items";
    EXPECT_EQ(tree_audit(t), std::nullopt) << when;
  };

  TypeParam scalar;  // one insert per key, ascending
  TypeParam bulk;    // insert_all: one ascending run per value
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(scalar.insert(k, val(k))) << k;
  }
  for (std::uint64_t r = 0; r < kNumVals; ++r) {
    std::vector<std::uint64_t> run;
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      if (k % kNumVals == r) run.push_back(k);
    }
    ASSERT_EQ(bulk.insert_all(run.data(), run.size(), vals[r]), run.size());
  }
  for (TypeParam* t : {&scalar, &bulk}) {
    expect_values(*t, [](std::uint64_t) { return true; }, "after insert");
    // Each erase copies the removed leaf's sibling; on the chromatic tree
    // a copied leaf that absorbs its parent's weight turns overweight, and
    // cleanup copies it again with a new weight.
    for (std::uint64_t k = 3; k <= kKeys; k += 3) ASSERT_TRUE(t->erase(k));
    expect_values(*t, [](std::uint64_t k) { return k % 3 != 0; },
                  "after erase");
    for (std::uint64_t k = 3; k <= kKeys; k += 3) {
      ASSERT_TRUE(t->insert(k, val(k)));
    }
    for (std::uint64_t k = 2; k <= kKeys; k += 4) ASSERT_TRUE(t->erase(k));
    expect_values(*t, [](std::uint64_t k) { return k % 4 != 2; },
                  "after re-insert");
  }

  {
    constexpr std::uint64_t kSpace = 256;
    TypeParam t;
    testing::KeyedOracle oracle;
    const std::uint64_t ops = testing::run_stress_workers(
        2, 6000, [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
          testing::KeyedOracle::Recorder rec(oracle);
          RangeOut w;
          std::uint64_t n = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key = 1 + rng.below(kSpace);
            const unsigned dice = static_cast<unsigned>(rng.below(100));
            if (dice < 40) {
              if (t.insert(key, val(key))) rec.add(key, 1);
            } else if (dice < 80) {
              if (t.erase(key)) rec.add(key, -1);
            } else if (dice < 90) {
              const auto v = tree_get(t, key);
              if (v) {
                EXPECT_EQ(*v, val(key)) << key;
              }
            } else {
              w.clear();
              t.range(key, key + 7, w);
              for (const auto& [k, v] : w) EXPECT_EQ(v, val(k)) << k;
            }
            ++n;
          }
          return n;
        });
    EXPECT_GT(ops, 0u);
    for (std::uint64_t k = 1; k <= kSpace; ++k) {
      const std::int64_t net = oracle.net(k);
      ASSERT_TRUE(net == 0 || net == 1) << "oracle accounting bug at " << k;
      const auto v = tree_get(t, k);
      ASSERT_EQ(v.has_value(), net == 1) << "divergence at key " << k;
      if (v) {
        EXPECT_EQ(*v, val(k)) << k;
      }
    }
    EXPECT_EQ(tree_audit(t), std::nullopt);
  }
  Epoch::drain_all_for_testing();
}

// --- Routing boundaries: the key-routed step's pick --------------------------
//
// Every walk that routes by key picks the child with read_routed
// (DESIGN.md §11). A key equal to a routing key must go right on the
// key-order trees, and a key one off a present key must miss it. So
// every present key k and its neighbours k ± 1 go through get, contains,
// multi_get's lanes, insert-if-absent (then an erase that restores the
// tree) and erase, against a std::map oracle. The key set has gaps, plus
// the edge keys 0, 1, 2^63 − 1, 2^63 and the tree's largest user key.

template <class C>
constexpr std::uint64_t largest_user_key() {
  using E = engine_t<C>;
  if constexpr (requires { E::kInf1; }) {
    return E::kInf1 - 1;
  } else {
    return E::kSentinelKey - 1;
  }
}

template <class C>
class RoutingBoundary : public ::testing::Test {};
TYPED_TEST_SUITE(RoutingBoundary, EveryTree);

TYPED_TEST(RoutingBoundary, KeysAndNeighboursMatchAnOracle) {
  constexpr std::uint64_t kTop = largest_user_key<TypeParam>();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  std::set<std::uint64_t> present = {0, 1, kHalf - 1, kHalf, kTop};
  for (std::uint64_t k = 16; k <= 1024; k += 16) present.insert(k);
  Xoshiro256 rng(0xB0DA);
  for (int i = 0; i < 256; ++i) present.insert(rng.next() & ~std::uint64_t{3});
  std::erase_if(present, [](std::uint64_t k) { return k > kTop; });
  const auto val = [](std::uint64_t k) { return ~k; };

  TypeParam t;
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (const std::uint64_t k : present) {
    ASSERT_TRUE(t.insert(k, val(k))) << k;
    oracle.emplace(k, val(k));
  }
  std::set<std::uint64_t> probe_set;
  for (const std::uint64_t k : present) {
    probe_set.insert(k);
    if (k > 0) probe_set.insert(k - 1);
    if (k < kTop) probe_set.insert(k + 1);
  }
  const std::vector<std::uint64_t> probes(probe_set.begin(), probe_set.end());

  const auto expect_reads = [&](const char* when) {
    for (const std::uint64_t k : probes) {
      const auto it = oracle.find(k);
      const auto v = tree_get(t, k);
      ASSERT_EQ(v.has_value(), it != oracle.end()) << when << " get " << k;
      if (v) {
        ASSERT_EQ(*v, it->second) << when << " get " << k;
      }
      ASSERT_EQ(t.contains(k), it != oracle.end()) << when << " contains " << k;
    }
    for (std::size_t base = 0; base < probes.size(); base += 8) {
      const std::size_t m = std::min<std::size_t>(8, probes.size() - base);
      bool hit[8];
      t.multi_get(probes.data() + base, m, hit);
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(hit[i], oracle.contains(probes[base + i]))
            << when << " multi_get " << probes[base + i];
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(expect_reads("built"));

  for (const std::uint64_t k : probes) {
    const bool absent = !oracle.contains(k);
    ASSERT_EQ(t.insert(k, 7), absent) << "insert-if-absent " << k;
    if (absent) {
      ASSERT_EQ(tree_get(t, k), std::optional<std::uint64_t>{7}) << k;
      ASSERT_TRUE(t.erase(k)) << "restoring erase " << k;
    }
    ASSERT_EQ(tree_get(t, k), absent ? std::nullopt
                                     : std::optional<std::uint64_t>{val(k)})
        << "after insert-if-absent " << k;
  }
  ASSERT_NO_FATAL_FAILURE(expect_reads("restored"));
  EXPECT_EQ(tree_audit(t), std::nullopt);

  for (const std::uint64_t k : probes) {
    ASSERT_EQ(t.erase(k), oracle.erase(k) == 1) << "erase " << k;
    ASSERT_FALSE(t.contains(k)) << "erased " << k;
  }
  ASSERT_NO_FATAL_FAILURE(expect_reads("erased"));
  EXPECT_TRUE(tree_items(t).empty());
  EXPECT_EQ(tree_audit(t), std::nullopt);
  Epoch::drain_all_for_testing();
}

// --- Failed updates decide at the walk's leaf --------------------------------
//
// An insert of a present key and an erase of an absent key answer false
// from the leaf their walk ends at, as get() does (Proposition 2): they
// read what get() of the same key reads, and take no LLX, no SCX, no CAS,
// no allocation and no retire. So does an insert_all run of present keys,
// and an erase on an empty tree, whose walk ends at a depth-1 sentinel.
template <class C>
class FailedUpdates : public ::testing::Test {};
TYPED_TEST_SUITE(FailedUpdates, EveryTree);

TYPED_TEST(FailedUpdates, DecideAtTheWalksLeafWithNoLlx) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  const auto expect_walks_only = [](const TypeParam& tree, const StepCounts& s,
                                    const std::uint64_t* ks, std::size_t m,
                                    const char* what) {
    std::uint64_t walks = 0;
    for (std::size_t i = 0; i < m; ++i) {
      walks += steps_of([&] { (void)tree_get(tree, ks[i]); }).shared_reads;
    }
    const std::uint64_t k = ks[0];
    EXPECT_EQ(s.shared_reads, walks) << what << " " << k << ": get()'s reads";
    EXPECT_EQ(s.llx_calls, 0u) << what << " " << k;
    EXPECT_EQ(s.scx_calls, 0u) << what << " " << k;
    EXPECT_EQ(s.cas, 0u) << what << " " << k;
    EXPECT_EQ(s.allocations, 0u) << what << " " << k;
    EXPECT_EQ(s.retires, 0u) << what << " " << k;
  };
  {
    TypeParam empty;
    const std::uint64_t k = 5;
    bool erased = true;
    expect_walks_only(empty, steps_of([&] { erased = empty.erase(k); }), &k,
                      1, "erase on an empty tree");
    EXPECT_FALSE(erased);
  }
  TypeParam t;
  std::vector<std::uint64_t> run;
  for (std::uint64_t k = 2; k <= 256; k += 2) {
    ASSERT_TRUE(t.insert(k, k + 1));
    run.push_back(k);
  }
  for (const std::uint64_t k : run) {
    bool inserted = true;
    expect_walks_only(t, steps_of([&] { inserted = t.insert(k, 0); }), &k, 1,
                      "insert of a present key");
    EXPECT_FALSE(inserted) << k;
    EXPECT_EQ(tree_get(t, k), std::optional<std::uint64_t>{k + 1}) << k;
  }
  for (std::uint64_t k = 1; k <= 257; k += 2) {
    bool erased = true;
    expect_walks_only(t, steps_of([&] { erased = t.erase(k); }), &k, 1,
                      "erase of an absent key");
    EXPECT_FALSE(erased) << k;
  }
  std::size_t inserted = 1;
  expect_walks_only(
      t, steps_of([&] { inserted = t.insert_all(run.data(), run.size(), 0); }),
      run.data(), run.size(), "insert_all of present keys");
  EXPECT_EQ(inserted, 0u);
  EXPECT_EQ(tree_items(t).size(), run.size());
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
