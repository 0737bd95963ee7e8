// The ScxOp builder (llxscx/scx_op.h): VLX through the API (validate-only
// reads on the BST), the misuse diagnostics DESIGN.md §8 promises (stale
// snapshot, reused `new` value, fld owner not in V, double/missing write),
// and the abort path freeing fresh allocations (ASAN is the net for that
// last one).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ds/bst_llxscx.h"
#include "llxscx/llx_scx.h"
#include "llxscx/scx_op.h"

namespace llxscx {
namespace {

struct Rec : DataRecord<2> {
  Rec(std::uint64_t a, std::uint64_t b) {
    mut(0).store(a, std::memory_order_relaxed);
    mut(1).store(b, std::memory_order_relaxed);
  }
};

// RAII misuse-handler install: records every diagnostic instead of the
// default print-and-assert, so misuse tests run in any build mode.
struct MisuseRecorder {
  static std::vector<std::string>& log() {
    static std::vector<std::string> v;
    return v;
  }
  static void handler(const char* what) { log().emplace_back(what); }
  MisuseRecorder() {
    log().clear();
    scx_op_misuse_handler() = &handler;
  }
  ~MisuseRecorder() { scx_op_misuse_handler() = nullptr; }
};

TEST(ScxOp, CommitWritesFieldAndFinalizesRSet) {
  Epoch::Guard g;
  Rec a(1, 2);
  auto* r = EbrManager::alloc<Rec>(3, 4);
  auto la = llx(&a);
  auto lr = llx(r);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lr.ok());
  ScxOp<Rec> op;
  EXPECT_EQ(op.link(la), &a);
  EXPECT_EQ(op.remove(lr), r);
  auto n = op.freshly(9, 9);
  op.write(&a, 0, n);
  ASSERT_TRUE(op.commit());
  EXPECT_EQ(a.mut(0).load(), reinterpret_cast<std::uint64_t>(n.get()));
  EXPECT_EQ(a.mut(1).load(), 2u) << "only the written field changes";
  auto lr2 = llx(r);
  EXPECT_TRUE(lr2.is_finalized()) << "remove() must finalize on commit";
  // r was retired by the builder (exactly once); n was published.
  EbrManager::dealloc(n.get());
  Epoch::drain_all_for_testing();
}

TEST(ScxOp, AbortedCommitDeletesFreshNodesAndWritesNothing) {
  Epoch::Guard g;
  Rec a(1, 2);
  auto stale = llx(&a);
  ASSERT_TRUE(stale.ok());
  // Invalidate the link: a committed SCX moves a's info field along.
  auto fresh = llx(&a);
  ASSERT_TRUE(fresh.ok());
  const LinkedLlx vf[1] = {fresh.link()};
  ASSERT_TRUE(scx(vf, 1, 0, &a.mut(0), 1, 5));

  ScxOp<Rec> op;
  op.link(stale);
  auto n = op.freshly(7, 7);
  op.write(&a, 0, n);
  EXPECT_FALSE(op.commit());  // the fresh node is freed (ASAN checks)
  EXPECT_EQ(a.mut(0).load(), 5u) << "an aborted op must not write fld";
}

TEST(ScxOp, DroppedWithoutCommitDeletesFreshNodes) {
  Epoch::Guard g;
  Rec a(1, 2);
  auto la = llx(&a);
  ASSERT_TRUE(la.ok());
  {
    ScxOp<Rec> op;
    op.link(la);
    op.freshly(7, 7);
    // A later LLX "failed": the op goes out of scope un-committed. ASAN
    // verifies the fresh node dies with it.
  }
  EXPECT_EQ(a.mut(0).load(), 1u);
}

TEST(ScxOp, ValidateDetectsInterveningCommit) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  ScxOp<Rec> op;
  op.link(la);
  op.link(lb);
  EXPECT_TRUE(op.validate());

  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));
  EXPECT_FALSE(op.validate()) << "VLX must see b's change";
}

// --- The §8 misuse diagnostics --------------------------------------------

TEST(ScxOpMisuse, StaleSnapshotDiagnosed) {
  Epoch::Guard g;
  auto* r = EbrManager::alloc<Rec>(1, 2);
  auto l = llx(r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, /*finalize r=*/0b1, &r->mut(0), 1, 1));
  auto dead = llx(r);
  ASSERT_TRUE(dead.is_finalized());

  MisuseRecorder rec;
  ScxOp<Rec> op;
  EXPECT_EQ(op.link(dead), nullptr);
  EXPECT_TRUE(op.poisoned());
  EXPECT_FALSE(op.commit());
  ASSERT_EQ(MisuseRecorder::log().size(), 1u);
  EXPECT_EQ(MisuseRecorder::log()[0], kScxOpStaleSnapshot);
  EbrManager::retire(r);
  Epoch::drain_all_for_testing();
}

TEST(ScxOpMisuse, ReusedNewValueDiagnosed) {
  Epoch::Guard g;
  Rec a(1, 2);
  auto la = llx(&a);
  ASSERT_TRUE(la.ok());
  ScxOp<Rec> op1;
  op1.link(la);
  auto n1 = op1.freshly(7, 8);
  op1.write(&a, 0, n1);
  ASSERT_TRUE(op1.commit());  // n1 is now published — no longer fresh

  auto la2 = llx(&a);
  ASSERT_TRUE(la2.ok());
  MisuseRecorder rec;
  ScxOp<Rec> op2;
  op2.link(la2);
  op2.write(&a, 1, n1);  // smuggled token from op1
  EXPECT_FALSE(op2.commit());
  ASSERT_EQ(MisuseRecorder::log().size(), 1u);
  EXPECT_EQ(MisuseRecorder::log()[0], kScxOpNewNotFresh);
  EXPECT_EQ(a.mut(1).load(), 2u) << "poisoned op must not write";
  EbrManager::dealloc(n1.get());
}

TEST(ScxOpMisuse, FldOwnerNotInVDiagnosed) {
  Epoch::Guard g;
  Rec a(1, 2), b(3, 4);
  auto la = llx(&a);
  ASSERT_TRUE(la.ok());
  MisuseRecorder rec;
  ScxOp<Rec> op;
  op.link(la);
  auto n = op.freshly(0, 0);
  op.write(&b, 0, n);  // b is not in V
  EXPECT_FALSE(op.commit());  // and n is freed (ASAN checks)
  ASSERT_EQ(MisuseRecorder::log().size(), 1u);
  EXPECT_EQ(MisuseRecorder::log()[0], kScxOpOwnerNotInV);
  EXPECT_EQ(b.mut(0).load(), 3u);
}

TEST(ScxOpMisuse, SecondWriteAndMissingWriteDiagnosed) {
  Epoch::Guard g;
  Rec a(1, 2);
  {
    auto la = llx(&a);
    ASSERT_TRUE(la.ok());
    MisuseRecorder rec;
    ScxOp<Rec> op;
    op.link(la);
    auto n = op.freshly(0, 0);
    auto m = op.freshly(0, 0);
    op.write(&a, 0, n);
    op.write(&a, 1, m);  // an SCX writes exactly one field
    EXPECT_FALSE(op.commit());
    ASSERT_EQ(MisuseRecorder::log().size(), 1u);
    EXPECT_EQ(MisuseRecorder::log()[0], kScxOpSecondWrite);
  }
  {
    auto la = llx(&a);
    ASSERT_TRUE(la.ok());
    MisuseRecorder rec;
    ScxOp<Rec> op;
    op.link(la);
    EXPECT_FALSE(op.commit());  // never wrote anything
    ASSERT_EQ(MisuseRecorder::log().size(), 1u);
    EXPECT_EQ(MisuseRecorder::log()[0], kScxOpNoWrite);
  }
  EXPECT_EQ(a.mut(0).load(), 1u);
  EXPECT_EQ(a.mut(1).load(), 2u);
}

TEST(ScxOpMisuse, CapacityAndFieldRangeDiagnosed) {
  Epoch::Guard g;
  Rec a(1, 2);
  {
    auto la = llx(&a);
    ASSERT_TRUE(la.ok());
    MisuseRecorder rec;
    ScxOp<Rec> op;
    op.link(la);
    // One past the fresh-allocation cap: the overflow call mints nothing
    // (a node the op could not track would be unfreeable) and poisons.
    for (std::size_t i = 0; i <= ScxOp<Rec>::kMaxFresh; ++i) op.freshly(0, 0);
    EXPECT_TRUE(op.poisoned());
    EXPECT_FALSE(op.commit());  // the tracked nodes are freed (ASAN checks)
    ASSERT_EQ(MisuseRecorder::log().size(), 1u);
    EXPECT_EQ(MisuseRecorder::log()[0], kScxOpTooManyFresh);
  }
  {
    auto la = llx(&a);
    ASSERT_TRUE(la.ok());
    MisuseRecorder rec;
    ScxOp<Rec> op;
    op.link(la);
    auto n = op.freshly(0, 0);
    op.write(&a, Rec::kNumMut, n);  // field index past the mutable range
    EXPECT_FALSE(op.commit());
    ASSERT_EQ(MisuseRecorder::log().size(), 1u);
    EXPECT_EQ(MisuseRecorder::log()[0], kScxOpBadField);
  }
  EXPECT_EQ(a.mut(0).load(), 1u);
  EXPECT_EQ(a.mut(1).load(), 2u);
}

// --- VLX through the API: validate-only traversal on the BST --------------

TEST(ScxOpVlx, ValidatedBstReadAgreesWithPlainGet) {
  LlxScxBst t;
  for (std::uint64_t k = 1; k <= 64; ++k) ASSERT_TRUE(t.insert(k, k * 3));
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const auto v = t.get_validated(k);
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, k * 3);
    EXPECT_EQ(t.get(k), v);
  }
  EXPECT_FALSE(t.get_validated(0).has_value());
  EXPECT_FALSE(t.get_validated(65).has_value());
  for (std::uint64_t k = 2; k <= 64; k += 2) ASSERT_TRUE(t.erase(k));
  for (std::uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(t.get_validated(k).has_value(), k % 2 == 1) << k;
  }
  Epoch::drain_all_for_testing();
}

// A validated read is exactly 2 LLX + one VLX over them: no CAS, no
// writes, no allocation — claim C-C's "k shared reads" in API form.
TEST(ScxOpVlx, ValidatedReadIsReadOnly) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxBst t;
  ASSERT_TRUE(t.insert(10, 100));
  ASSERT_TRUE(t.insert(20, 200));
  Stats::reset_mine();
  EXPECT_EQ(t.get_validated(10), std::optional<std::uint64_t>(100));
  const StepCounts d = Stats::my_snapshot();
  EXPECT_EQ(d.llx_calls, 2u) << "parent + leaf";
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 0u);
  EXPECT_EQ(d.cas, 0u) << "validate-only: VLX performs no CAS";
  EXPECT_EQ(d.shared_writes, 0u);
  EXPECT_EQ(d.allocations, 0u);
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx
