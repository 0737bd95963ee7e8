// Range scans and sorted-run bulk builds (DESIGN.md §15).
//
// What is pinned here:
//   - range() on the trees is read-pure: 0 LLX, 0 CAS, 0 shared writes,
//     0 record allocations (StepCounts.allocations) per clean attempt —
//     the walk plus its VLX witnesses are the WHOLE cost (for the BST's
//     known right-chain and left-chain shapes the shared-read count is
//     pinned EXACTLY);
//   - a warm range() calls operator new zero times, on a bare tree and
//     through ShardedMap's slice merge (per-thread buffers; `out`
//     reserved by the caller) — counted by the replacement operator new
//     below;
//   - insert_all() commits ONE SCX per leaf group: 1..32 into an empty
//     BST is exactly 2 SCXs (two 16-key groups), into an empty Patricia
//     exactly 3 (the trie's branch intervals bound the middle group);
//   - insert_all() is observationally equivalent to the scalar insert
//     loop, on sorted runs and on runs in draw order: same return count,
//     identical quiescent items(), and on the chromatic tree a clean
//     consistency audit (the ≤1-violation-per-group weight discipline
//     feeds the existing cleanup);
//   - an insert calls operator new only for the records its SCXs
//     install: 3 per absent key, 0 per present key, 2·G+1 per group;
//   - warm insert/erase churn calls operator new zero times: EbrManager
//     recycles every record's block (tree, hash map and sharded tree);
//   - the multiset's range() walks its window in ascending order and the
//     hash map's scan_n() is a bounded, duplicate-free sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "reclaim/epoch.h"
#include "service/sharded_map.h"
#include "util/random.h"

#include "tests/test_common.h"

// Counting replacement of the global operator new: each thread counts its
// own heap allocations, so a test can pin that a call made none. The
// matching deletes stay out of line: inlined into a `new T` site, GCC's
// -Wmismatched-new-delete would see free() on operator new's pointer.
namespace {
thread_local std::size_t t_heap_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_heap_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace llxscx {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;

// --- range(): read-purity and the exact BST read count ---------------------

// Inserting 1..N ascending builds the known right-chain: root(inf2) and
// internal(inf1) on top, then internal(2..N) chaining right, leaves 1..N.
// A [1, N] scan therefore costs EXACTLY:
//   witness capture   2 reads (info, state) × (N+1) internals visited
//   child edges       1 at root + 1 at internal(inf1) (right subtrees are
//                     pruned by scan_dir) + 2 at each of internal(2..N)
//                     = 2N counted reads
//   final VLX         1 read per witness = N+1
// total = 2(N+1) + 2N + (N+1) = 5N + 3. Leaves cost nothing (payloads are
// immutable; their reachability is covered by the parent's witness).
//
// Inserting N..1 builds the mirror left chain: internal(N..2) chaining
// left, leaf k the right child of internal(k), leaf 1 under internal(2).
// The same N+1 internals, 2N edges and N+1 VLX reads make it 5N + 3 too.
// The two chains take the walk's two paths: on the left chain it steps
// into every interior left child in place and parks each leaf right
// child on its stack; on the right chain every left child is a leaf,
// which it emits on the spot before stepping to the right child, so the
// stack stays empty.
TEST(RangeShape, BstScanReadsPinnedExactly) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    constexpr std::uint64_t kN = 64;
    for (const bool ascending : {true, false}) {
      const char* chain = ascending ? "right chain" : "left chain";
      LlxScxBst t;
      for (std::uint64_t i = 1; i <= kN; ++i) {
        const std::uint64_t k = ascending ? i : kN + 1 - i;
        ASSERT_TRUE(t.insert(k, k));
      }
      std::vector<Pair> out;
      const StepCounts s = steps_of([&] { t.range(1, kN, out); });
      ASSERT_EQ(out.size(), kN) << chain;
      for (std::uint64_t k = 1; k <= kN; ++k) {
        EXPECT_EQ(out[k - 1], (Pair{k, k})) << chain;
      }
      EXPECT_EQ(s.shared_reads, 5 * kN + 3)
          << chain << ": walk + witnesses + VLX only";
      EXPECT_EQ(s.llx_calls, 0u) << chain;
      EXPECT_EQ(s.cas, 0u) << chain;
      EXPECT_EQ(s.shared_writes, 0u) << chain;
      EXPECT_EQ(s.allocations, 0u) << chain;
    }
  }
}

// The 0-LLX / 0-CAS / 0-write / 0-alloc shape holds on every tree, not
// just the chain — a quiescent scan never retries, so one attempt is the
// whole cost (Proposition 2 extended to multi-node reads by VLX).
template <class Tree>
void expect_read_pure_range() {
  Tree t;
  for (std::uint64_t k = 1; k <= 512; ++k) ASSERT_TRUE(t.insert(k, k + 7));
  std::vector<Pair> out;
  const StepCounts s = steps_of([&] { t.range(100, 300, out); });
  ASSERT_EQ(out.size(), 201u) << Tree::kName;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].first, 100 + i) << Tree::kName;
    ASSERT_EQ(out[i].second, out[i].first + 7) << Tree::kName;
  }
  EXPECT_EQ(s.llx_calls, 0u) << Tree::kName;
  EXPECT_EQ(s.cas, 0u) << Tree::kName;
  EXPECT_EQ(s.shared_writes, 0u) << Tree::kName;
  EXPECT_EQ(s.allocations, 0u) << Tree::kName;
}

TEST(RangeShape, ZeroUpdateStepsOnEveryTree) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    expect_read_pure_range<LlxScxBst>();
    expect_read_pure_range<LlxScxPatricia>();
    expect_read_pure_range<LlxScxChromatic>();
  }
}

// Empty window, reversed bounds, and out-append discipline.
TEST(RangeShape, WindowEdgeCases) {
  LlxScxChromatic t;
  for (std::uint64_t k = 10; k <= 50; k += 10) ASSERT_TRUE(t.insert(k, k));
  std::vector<Pair> out{{1, 1}};  // pre-existing content must survive
  EXPECT_EQ(t.range(11, 19, out), 0u);
  EXPECT_EQ(t.range(30, 10, out), 0u);  // lo > hi
  EXPECT_EQ(t.range(20, 40, out), 3u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (Pair{1, 1}));
  EXPECT_EQ(out[1], (Pair{20, 20}));
  EXPECT_EQ(out[3], (Pair{40, 40}));
  EXPECT_EQ(t.range(0, ~std::uint64_t{0}, out), 5u)
      << "full-range scan must not see the sentinels";
}

// --- range(): zero heap allocations per warm scan ----------------------------

// Sweeps 100-key windows over 1..2048 twice and returns how many times the
// second sweep called operator new. The first sweep warms every per-thread
// buffer to its high water (and the thread's epoch records).
template <class M>
std::size_t heap_news_in_warm_sweep(const M& m) {
  RangeOut out;
  out.reserve(100);
  std::size_t found = 0;
  const auto sweep = [&] {
    for (std::uint64_t lo = 1; lo <= 2048; lo += 37) {
      out.clear();
      found += m.range(lo, lo + 99, out);
    }
  };
  sweep();
  const std::size_t before = t_heap_news;
  sweep();
  const std::size_t news = t_heap_news - before;
  EXPECT_EQ(found, 2 * 5450u) << M::kName << ": every window answered";
  return news;
}

TEST(RangeHeap, WarmScansCallOperatorNewZeroTimes) {
  LlxScxChromatic tree;
  ShardedMap<LlxScxChromatic> sharded;
  for (std::uint64_t k = 1; k <= 2048; ++k) {
    ASSERT_TRUE(tree.insert(k, k));
    ASSERT_TRUE(sharded.insert(k, k));
  }
  EXPECT_EQ(heap_news_in_warm_sweep(tree), 0u) << LlxScxChromatic::kName;
  EXPECT_EQ(heap_news_in_warm_sweep(sharded), 0u)
      << ShardedMap<LlxScxChromatic>::kName;
}

// --- insert_all(): one SCX per leaf group -----------------------------------

// 1..32 into an empty BST: the first walk lands on the inf1 sentinel leaf
// and takes keys 1..16 (the group cap); the rebuilt subtree's rightmost
// leaf is inf1 again, so the second walk lands beside key 16 and takes
// 17..32. Two groups ⇒ exactly 2 SCXs and 4 LLXs (one ⟨p, t⟩ pair per
// group), each SCX freezing |V| = 2 records ⇒ 3 CAS each.
TEST(InsertAllShape, BstOneScxPerLeafGroup) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    LlxScxBst t;
    std::uint64_t keys[32];
    for (std::uint64_t i = 0; i < 32; ++i) keys[i] = i + 1;
    std::size_t inserted = 0;
    const StepCounts s = steps_of([&] { inserted = t.insert_all(keys, 32, 5); });
    EXPECT_EQ(inserted, 32u);
    EXPECT_EQ(s.scx_calls, 2u) << "one SCX per 16-key leaf group";
    EXPECT_EQ(s.scx_fail, 0u);
    EXPECT_EQ(s.llx_calls, 4u);
    EXPECT_EQ(s.cas, 6u) << "k+1 = 3 CAS per SCX, |V| = {parent, leaf}";
    EXPECT_EQ(t.size(), 32u);
  }
}

// Same run into an empty Patricia: group one (1..16) lands at the
// sentinel; the second walk descends INTO the fresh trie and bottoms out
// under the bit-4 branch, whose routing interval [16, 31] bounds the
// group at 17..31; key 32 goes alone. Three groups ⇒ exactly 3 SCXs.
TEST(InsertAllShape, PatriciaGroupsBoundedByBranchIntervals) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    LlxScxPatricia t;
    std::uint64_t keys[32];
    for (std::uint64_t i = 0; i < 32; ++i) keys[i] = i + 1;
    std::size_t inserted = 0;
    const StepCounts s = steps_of([&] { inserted = t.insert_all(keys, 32, 5); });
    EXPECT_EQ(inserted, 32u);
    EXPECT_EQ(s.scx_calls, 3u) << "16 at the sentinel, 15 under the bit-4 "
                                  "branch, 32 alone";
    EXPECT_EQ(s.scx_fail, 0u);
    EXPECT_EQ(s.llx_calls, 6u);
    EXPECT_EQ(t.size(), 32u);
  }
}

// --- insert_all(): scalar equivalence ---------------------------------------

template <class C>
void expect_bulk_matches_scalar(const std::vector<std::uint64_t>& run,
                                std::uint64_t value) {
  C bulk, scalar;
  const std::size_t via_bulk =
      container_insert_all(bulk, run.data(), run.size(), value);
  std::size_t via_scalar = 0;
  for (const std::uint64_t k : run) {
    if (scalar.insert(k, value)) ++via_scalar;
  }
  EXPECT_EQ(via_bulk, via_scalar) << C::kName;
  EXPECT_EQ(bulk.size(), scalar.size()) << C::kName;
  // The quiescent full-range view is the whole observable state of a map.
  RangeOut got, want;
  container_range(bulk, 0, ~std::uint64_t{0}, got);
  container_range(scalar, 0, ~std::uint64_t{0}, want);
  EXPECT_EQ(got, want) << C::kName;
  // Scalar insert is a one-key insert_all, so also check an oracle.
  const std::set<std::uint64_t> distinct(run.begin(), run.end());
  RangeOut oracle;
  for (const std::uint64_t k : distinct) oracle.emplace_back(k, value);
  EXPECT_EQ(want, oracle) << C::kName;
  if constexpr (requires { bulk.consistency_error(); }) {
    EXPECT_EQ(bulk.consistency_error(), std::nullopt)
        << C::kName << ": group weights must leave a balanced tree "
        << "(≤1 violation per group, cleaned by the insert catalog)";
  }
}

template <class C>
void run_bulk_equivalence() {
  Xoshiro256 rng(0xB17D);
  for (int round = 0; round < 12; ++round) {
    std::vector<std::uint64_t> run;
    const std::size_t n = 1 + rng.below(600);
    for (std::size_t i = 0; i < n; ++i) {
      run.push_back(1 + rng.below(512));  // dense: dups and regroups galore
    }
    // Rounds 8.. keep draw order: any order is correct, only sorted
    // stretches group. A descending key, or one below the target edge's
    // interval (a present key emptied the group), must end the group.
    if (round < 8) std::sort(run.begin(), run.end());
    expect_bulk_matches_scalar<C>(run, 42);
  }
  // The ascending dense run — the bench's grow stream.
  std::vector<std::uint64_t> seq;
  for (std::uint64_t k = 1; k <= 1000; ++k) seq.push_back(k);
  expect_bulk_matches_scalar<C>(seq, 7);
}

TEST(InsertAllEquivalence, Bst) { run_bulk_equivalence<LlxScxBst>(); }
TEST(InsertAllEquivalence, Patricia) {
  run_bulk_equivalence<LlxScxPatricia>();
}
TEST(InsertAllEquivalence, Chromatic) {
  run_bulk_equivalence<LlxScxChromatic>();
}
TEST(InsertAllEquivalence, ShardedChromatic) {
  run_bulk_equivalence<ShardedMap<LlxScxChromatic>>();
}

// Re-running a run over existing keys inserts nothing and changes nothing.
TEST(InsertAllEquivalence, IdempotentOverExistingKeys) {
  LlxScxChromatic t;
  std::vector<std::uint64_t> run;
  for (std::uint64_t k = 2; k <= 256; k += 2) run.push_back(k);
  EXPECT_EQ(t.insert_all(run.data(), run.size(), 1), run.size());
  EXPECT_EQ(t.insert_all(run.data(), run.size(), 1), 0u);
  EXPECT_EQ(t.size(), run.size());
  EXPECT_EQ(t.consistency_error(), std::nullopt);
}

// --- inserts: the only heap allocations are the installed records ----------

// Under LeakyManager a retire allocates nothing (the node is dropped), so a
// thread's operator new count across an insert is exactly the records its
// SCXs install: 3 for an absent key (new leaf, displaced-leaf copy, new
// parent), 0 for a present key, and 2·G+1 per insert_all group — 66 for
// 1..32 into an empty BST (two 16-key groups), 67 for the Patricia trie
// (groups of 16, 15 and 1 keys; see InsertAllShape above). A heap-allocated
// group buffer would show up on top of those.
template <class Tree>
void expect_inserts_allocate_only_records(std::size_t bulk_news) {
  testing::ScopedExpectedLeak expected_leak;
  const auto news_of = [](auto&& fn) {
    const std::size_t before = t_heap_news;
    fn();
    return t_heap_news - before;
  };
  bool absent = false, present = true;
  std::size_t inserted = 0;
  Tree t;
  ASSERT_TRUE(t.insert(100, 1));  // warm-up: the thread's epoch + SCX slot
  EXPECT_EQ(news_of([&] { absent = t.insert(200, 2); }), 3u) << Tree::kName;
  EXPECT_EQ(news_of([&] { present = t.insert(200, 3); }), 0u) << Tree::kName;
  EXPECT_TRUE(absent);
  EXPECT_FALSE(present);
  Tree bulk;
  std::uint64_t keys[32];
  for (std::uint64_t i = 0; i < 32; ++i) keys[i] = i + 1;
  EXPECT_EQ(news_of([&] { inserted = bulk.insert_all(keys, 32, 5); }),
            bulk_news)
      << Tree::kName;
  EXPECT_EQ(inserted, 32u);
}

TEST(InsertHeap, InsertsAllocateOnlyTheirFreshRecords) {
  expect_inserts_allocate_only_records<BasicLlxScxBst<LeakyManager>>(66);
  expect_inserts_allocate_only_records<BasicLlxScxPatricia<LeakyManager>>(67);
}

// --- warm churn: updates call operator new zero times -----------------------

// One thread prefills 1024 of 2048 keys, then runs 20k warm-up ops of 50/50
// put/erase over all 2048 keys: that brings the thread's epoch records,
// limbo lists, scan buffer and size-class banks to their high water. The
// next 20k ops must call operator new zero times — every record an update
// installs reuses a block that the grace period handed back to a bank.
template <class M, class Put>
std::size_t heap_news_in_warm_churn(M& m, Put put) {
  Xoshiro256 rng(2048);
  for (std::uint64_t k = 2; k <= 2048; k += 2) put(m, k);
  const auto churn = [&] {
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t key = 1 + rng.below(2048);
      if (rng.percent(50)) {
        put(m, key);
      } else {
        m.erase(key);
      }
    }
  };
  churn();
  const std::size_t before = t_heap_news;
  churn();
  return t_heap_news - before;
}

TEST(InsertHeap, WarmChurnCallsOperatorNewZeroTimes) {
  const auto insert = [](auto& m, std::uint64_t k) { m.insert(k, k); };
  const auto upsert = [](auto& m, std::uint64_t k) { m.upsert(k, k); };
  LlxScxChromatic tree;
  EXPECT_EQ(heap_news_in_warm_churn(tree, insert), 0u)
      << LlxScxChromatic::kName;
  LlxScxHashMap map(1024);
  EXPECT_EQ(heap_news_in_warm_churn(map, upsert), 0u) << LlxScxHashMap::kName;
  ShardedMap<LlxScxChromatic> sharded;
  EXPECT_EQ(heap_news_in_warm_churn(sharded, insert), 0u)
      << ShardedMap<LlxScxChromatic>::kName;
}

// --- multiset range / hashmap scan_n ----------------------------------------

TEST(MultisetRange, AscendingWindowWithCounts) {
  LlxScxMultiset m;
  for (std::uint64_t k = 1; k <= 20; ++k) m.insert(k, k % 3 + 1);
  std::vector<Pair> out;
  EXPECT_EQ(m.range(5, 9, out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].first, 5 + i);
    EXPECT_EQ(out[i].second, (5 + i) % 3 + 1);
  }
}

TEST(HashMapScanN, BoundedDuplicateFreeSample) {
  LlxScxHashMap m;
  for (std::uint64_t k = 1; k <= 100; ++k) ASSERT_TRUE(m.insert(k, k * 2));
  std::vector<Pair> out;
  EXPECT_EQ(m.scan_n(10, out), 10u);
  std::set<std::uint64_t> seen;
  for (const Pair& p : out) {
    EXPECT_TRUE(p.first >= 1 && p.first <= 100);
    EXPECT_EQ(p.second, p.first * 2);
    EXPECT_TRUE(seen.insert(p.first).second) << "duplicate " << p.first;
  }
  out.clear();
  EXPECT_EQ(m.scan_n(1000, out), 100u) << "limit past size returns all";
}

// container_scan routes: ordered engines answer the window, the hash map
// answers a bounded sample — both bounded by limit.
TEST(ContainerScan, RoutesPerEngineShape) {
  LlxScxChromatic tree;
  LlxScxHashMap map;
  for (std::uint64_t k = 1; k <= 300; ++k) {
    tree.insert(k, k);
    map.insert(k, k);
  }
  std::vector<Pair> out;
  EXPECT_EQ(container_scan(tree, 50, 100, 100, out), 100u);
  EXPECT_EQ(out.front().first, 50u);
  EXPECT_EQ(out.back().first, 149u);
  out.clear();
  EXPECT_EQ(container_scan(map, 50, 100, 100, out), 100u);
  // Saturating upper bound: a window at the top of the key space clamps.
  out.clear();
  LlxScxBst b;
  b.insert(5, 5);
  EXPECT_EQ(container_scan(b, ~std::uint64_t{0} - 10, 100, 100, out), 0u);
}

}  // namespace
}  // namespace llxscx
