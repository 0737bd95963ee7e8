// Sequential semantics of the Fig. 6 multiset (DESIGN.md §6): multiplicity
// accounting, duplicate keys, ordered traversal, and empty-set edges — for
// both traversal flavors (plain reads and LLX-per-node), and for the MCAS
// and lock-based implementations E2 compares against.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "baselines/locks.h"
#include "ds/container_api.h"
#include "ds/multiset_llxscx.h"
#include "ds/multiset_mcas.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

TEST(Multiset, EmptySetEdgeCases) {
  LlxScxMultiset ms;
  EXPECT_EQ(ms.get(1), 0u);
  EXPECT_EQ(ms.get(0), 0u);
  EXPECT_FALSE(ms.erase(1));
  EXPECT_EQ(ms.erase(42, 100), 0u);
  EXPECT_TRUE(ms.items().empty());
  EXPECT_EQ(ms.get_llx_traversal(1), 0u);
}

TEST(Multiset, InsertGetDeleteCounts) {
  LlxScxMultiset ms;
  EXPECT_TRUE(ms.insert(5, 1));
  EXPECT_EQ(ms.get(5), 1u);
  EXPECT_EQ(ms.get(4), 0u);
  EXPECT_EQ(ms.get(6), 0u);

  EXPECT_TRUE(ms.erase(5));
  EXPECT_EQ(ms.get(5), 0u);
  EXPECT_FALSE(ms.erase(5));
}

TEST(Multiset, DuplicateKeyMultiplicity) {
  LlxScxMultiset ms;
  ms.insert(10, 2);
  ms.insert(10, 3);
  EXPECT_EQ(ms.get(10), 5u);

  EXPECT_EQ(ms.erase(10, 2), 2u);
  EXPECT_EQ(ms.get(10), 3u);

  // Erasing more copies than exist removes the key and reports the actual
  // number removed.
  EXPECT_EQ(ms.erase(10, 99), 3u);
  EXPECT_EQ(ms.get(10), 0u);
  EXPECT_TRUE(ms.items().empty());
}

TEST(Multiset, OrderedTraversal) {
  LlxScxMultiset ms;
  const std::uint64_t keys[] = {9, 3, 7, 1, 5, 3};
  for (std::uint64_t k : keys) ms.insert(k, 1);

  const auto items = ms.items();
  ASSERT_EQ(items.size(), 5u);  // 3 collapses into one node with count 2
  std::uint64_t prev = 0;
  for (const auto& [key, count] : items) {
    EXPECT_GT(key, prev) << "keys must be strictly increasing";
    EXPECT_GT(count, 0u);
    prev = key;
  }
  EXPECT_EQ(items[1].first, 3u);
  EXPECT_EQ(items[1].second, 2u);
}

TEST(Multiset, LlxTraversalAgreesWithPlainReads) {
  LlxScxMultiset ms;
  for (std::uint64_t k = 1; k <= 32; ++k) ms.insert(k, k);
  for (std::uint64_t k = 1; k <= 32; ++k) {
    EXPECT_EQ(ms.get(k), k);
    EXPECT_EQ(ms.get_llx_traversal(k), k);
  }
  EXPECT_EQ(ms.get_llx_traversal(33), 0u);
  ms.erase(16, 16);
  EXPECT_EQ(ms.get_llx_traversal(16), 0u);
  EXPECT_EQ(ms.get(16), 0u);
}

TEST(Multiset, KeyZeroIsAValidKey) {
  LlxScxMultiset ms;
  ms.insert(0, 4);
  EXPECT_EQ(ms.get(0), 4u);
  EXPECT_EQ(ms.erase(0, 4), 4u);
  EXPECT_EQ(ms.get(0), 0u);
}

// DESIGN.md §6: the list's three SCX shapes, uncontended so no retry
// inflates the counts. insert of an absent key is k=1 (⟨pred⟩ ⇒ 2 CAS,
// f=0 ⇒ 2 writes); insert of a present key and a partial erase replace
// the node, k=2 (⟨pred, cur⟩ ⇒ 3 CAS, f=1 ⇒ 3 writes); a full erase
// also copies the successor, k=3 (⟨pred, cur, succ⟩ ⇒ 4 CAS, f=2 ⇒ 4
// writes). Each allocates exactly one node. An absent key's erase is one
// LLX of pred and no SCX.
TEST(Multiset, ScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxMultiset ms;
  ASSERT_TRUE(ms.insert(10, 1));
  ASSERT_TRUE(ms.insert(30, 1));

  StepCounts d = steps_of([&] { ASSERT_TRUE(ms.insert(20, 2)); });
  EXPECT_EQ(d.llx_calls, 1u);
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 2u) << "insert-absent: k+1 CAS with k=1";
  EXPECT_EQ(d.shared_writes, 2u) << "insert-absent: f+2 writes with f=0";
  EXPECT_EQ(d.allocations, 1u) << "1 fresh node";
  EXPECT_EQ(d.retires, 0u) << "insert-absent: R = ∅";

  d = steps_of([&] { ASSERT_TRUE(ms.insert(20, 3)); });
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "insert-present: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "insert-present: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 1u) << "1 replacement node";
  EXPECT_EQ(d.retires, 1u) << "insert-present: R = ⟨cur⟩";

  d = steps_of([&] { ASSERT_EQ(ms.erase(20, 1), 1u); });
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "partial erase: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "partial erase: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 1u) << "1 replacement node";
  EXPECT_EQ(d.retires, 1u) << "partial erase: R = ⟨cur⟩";

  d = steps_of([&] { ASSERT_EQ(ms.erase(20, 4), 4u); });
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "full erase: k+1 CAS with k=3";
  EXPECT_EQ(d.shared_writes, 4u) << "full erase: f+2 writes with f=2";
  EXPECT_EQ(d.allocations, 1u) << "1 successor copy";
  EXPECT_EQ(d.retires, 2u) << "full erase: R = ⟨cur, succ⟩";

  // The last item's successor is the tail sentinel: same k=3 shape, the
  // copy is a fresh tail.
  d = steps_of([&] { ASSERT_EQ(ms.erase(30, 1), 1u); });
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.cas, 4u);
  EXPECT_EQ(d.shared_writes, 4u);
  EXPECT_EQ(d.allocations, 1u) << "1 fresh tail";
  EXPECT_EQ(d.retires, 2u) << "R = ⟨cur, tail⟩";

  d = steps_of([&] { ASSERT_EQ(ms.erase(20, 1), 0u); });
  EXPECT_EQ(d.llx_calls, 1u) << "absent: LLX pred, re-read cur, decide";
  EXPECT_EQ(d.scx_calls, 0u);
  EXPECT_EQ(d.cas, 0u);
  EXPECT_EQ(d.allocations, 0u);
  EXPECT_EQ(d.retires, 0u);
  Epoch::drain_all_for_testing();
}

// A zero count is an ordinary value under the container contract
// (insert(key, value) reads it as a count here), so it must be a no-op:
// no ⟨key, 0⟩ node that items() and range() would report while contains()
// and size() deny it, and no SCX that replaces a node with an identical
// one.
TEST(Multiset, ZeroCountLeavesTheListUnchanged) {
  LlxScxMultiset ms;
  EXPECT_TRUE(ms.insert(7, 0));
  EXPECT_FALSE(ms.contains(7));
  EXPECT_EQ(ms.size(), 0u);
  EXPECT_TRUE(ms.items().empty());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(ms.range(0, 100, out), 0u);
  EXPECT_FALSE(ms.erase(7));

  ASSERT_TRUE(ms.insert(9, 2));
  if (kStepCounting) {
    EXPECT_EQ(steps_of([&] { EXPECT_TRUE(ms.insert(9, 0)); }).scx_calls, 0u);
    EXPECT_EQ(steps_of([&] { EXPECT_EQ(ms.erase(9, 0), 0u); }).scx_calls, 0u);
  } else {
    EXPECT_TRUE(ms.insert(9, 0));
    EXPECT_EQ(ms.erase(9, 0), 0u);
  }
  EXPECT_EQ(ms.get(9), 2u);
  const auto items = ms.items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], std::make_pair(std::uint64_t{9}, std::uint64_t{2}));
  Epoch::drain_all_for_testing();
}

// The same semantic contract holds across the E2 comparison set.
template <typename MultisetT>
void check_common_semantics() {
  MultisetT ms;
  EXPECT_EQ(ms.get(7), 0u);
  EXPECT_TRUE(ms.insert(7, 2));
  EXPECT_TRUE(ms.insert(3, 1));
  EXPECT_TRUE(ms.insert(7, 1));
  EXPECT_EQ(ms.get(7), 3u);
  EXPECT_EQ(ms.get(3), 1u);
  EXPECT_EQ(ms.erase(7, 2), 2u);
  EXPECT_EQ(ms.get(7), 1u);
  EXPECT_EQ(ms.erase(7, 5), 1u);
  EXPECT_EQ(ms.erase(7, 1), 0u);
  EXPECT_EQ(ms.get(3), 1u);

  // The zero-count rule (DESIGN.md §6), on an absent and a present key: no
  // ⟨7, 0⟩ entry for the erase of 7 to remove, and no CAS or allocation.
  // (The lock-based types count no steps; the pin bites on the others.)
  const StepCounts zero = steps_of([&] {
    EXPECT_TRUE(ms.insert(7, 0));
    EXPECT_EQ(ms.erase(7, 0), 0u);
    EXPECT_EQ(ms.erase(7, 1), 0u);
    EXPECT_TRUE(ms.insert(3, 0));
    EXPECT_EQ(ms.erase(3, 0), 0u);
  });
  if (kStepCounting) {
    EXPECT_EQ(zero.cas, 0u);
    EXPECT_EQ(zero.allocations, 0u);
  }
  EXPECT_EQ(ms.get(7), 0u);
  EXPECT_EQ(ms.get(3), 1u);
}

TEST(Multiset, McasImplementationSemantics) {
  check_common_semantics<McasMultiset>();
  Epoch::drain_all_for_testing();
}

TEST(Multiset, FineLockImplementationSemantics) {
  check_common_semantics<FineListMultiset>();
  Epoch::drain_all_for_testing();
}

TEST(Multiset, CoarseLockImplementationSemantics) {
  check_common_semantics<CoarseMultiset>();
}

// The E8 no-free ablation is now just the LeakyManager policy: same
// structure code, retire() drops nodes on the floor (the old hand-rolled
// Leaky multiset variant is gone). The dropped nodes are the policy's
// documented leak — scoped out of LSan, not an accident.
TEST(Multiset, LeakyManagerPolicySameSemantics) {
  testing::ScopedExpectedLeak expected_leak;
  check_common_semantics<BasicLlxScxMultiset<LeakyManager>>();
}

// And EbrManager (the default: per-thread node recycling over EBR) meets
// the same contract; reuse itself is pinned in test_record_manager.
TEST(Multiset, EbrManagerPolicySameSemantics) {
  check_common_semantics<BasicLlxScxMultiset<EbrManager>>();
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx
