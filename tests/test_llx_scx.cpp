// Single-thread (plus helping-correctness) unit tests pinning down the
// LLX/SCX invariants listed in DESIGN.md §7: snapshot semantics, commit,
// FINALIZED, conflict failure, VLX, the paper's uncontended step counts
// (claim C-A), and the per-thread descriptor slots reused under sequence
// numbers (DESIGN.md §2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "llxscx/llx_scx.h"
#include "reclaim/record_manager.h"
#include "util/barrier.h"
#include "util/stats.h"

namespace llxscx {
namespace {

struct Rec : DataRecord<2> {
  Rec(std::uint64_t a, std::uint64_t b) {
    mut(0).store(a, std::memory_order_relaxed);
    mut(1).store(b, std::memory_order_relaxed);
  }
};

TEST(LlxScx, LlxOnUnfrozenRecordReturnsFields) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  EXPECT_FALSE(l.failed());
  EXPECT_FALSE(l.is_finalized());
  EXPECT_EQ(l.field(0), 7u);
  EXPECT_EQ(l.field(1), 9u);
}

TEST(LlxScx, ScxCommitsSingleRecordFieldUpdate) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  EXPECT_TRUE(scx(v, 1, 0, &r.mut(0), 7, 42));
  EXPECT_EQ(r.mut(0).load(), 42u);
  EXPECT_EQ(r.mut(1).load(), 9u);

  // The record is unfrozen again: a fresh LLX/SCX pair succeeds.
  auto l2 = llx(&r);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.field(0), 42u);
  const LinkedLlx v2[1] = {l2.link()};
  EXPECT_TRUE(scx(v2, 1, 0, &r.mut(1), 9, 10));
  EXPECT_EQ(r.mut(1).load(), 10u);
}

TEST(LlxScx, LlxAfterFinalizeReturnsFinalized) {
  Epoch::Guard g;
  auto* r = EbrManager::alloc<Rec>(1, 2);
  auto l = llx(r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, /*finalize r=*/0b1, &r->mut(0), 1, 1));

  auto l2 = llx(r);
  EXPECT_FALSE(l2.ok());
  EXPECT_TRUE(l2.is_finalized());
  EXPECT_FALSE(l2.failed());
  EbrManager::retire(r);
}

TEST(LlxScx, ScxWithStaleLlxSnapshotFails) {
  Epoch::Guard g;
  Rec r(1, 2);
  auto stale = llx(&r);
  ASSERT_TRUE(stale.ok());

  // An intervening committed SCX invalidates the stale link.
  auto fresh = llx(&r);
  ASSERT_TRUE(fresh.ok());
  const LinkedLlx vf[1] = {fresh.link()};
  ASSERT_TRUE(scx(vf, 1, 0, &r.mut(0), 1, 5));

  const LinkedLlx vs[1] = {stale.link()};
  EXPECT_FALSE(scx(vs, 1, 0, &r.mut(0), 1, 9));
  EXPECT_EQ(r.mut(0).load(), 5u) << "a failed SCX must not write fld";
}

TEST(LlxScx, MultiRecordScxFailsIfAnyRecordChanged) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());

  // Change b behind the snapshot's back.
  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));

  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_FALSE(scx(v, 2, 0, &a.mut(0), 1, 7));
  EXPECT_EQ(a.mut(0).load(), 1u);
}

TEST(LlxScx, VlxValidatesUnchangedRecordsAndDetectsChanges) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_TRUE(vlx(v, 2));

  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));
  EXPECT_FALSE(vlx(v, 2));
}

// Claim C-A (§1): an uncontended SCX over k records finalizing f of them
// performs exactly k+1 CAS and f+2 shared writes.
TEST(LlxScx, UncontendedScxStepCountsMatchClaimCA) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  Epoch::Guard g;
  constexpr int k = 3;
  constexpr int f = 2;
  Rec* recs[k];
  LinkedLlx v[k];
  for (int i = 0; i < k; ++i) {
    recs[i] = EbrManager::alloc<Rec>(1, 1);
    auto l = llx(recs[i]);
    ASSERT_TRUE(l.ok());
    v[i] = l.link();
  }
  const std::uint32_t mask = 0b110;  // finalize the last f records
  const StepCounts before = Stats::my_snapshot();
  ASSERT_TRUE(scx(v, k, mask, &recs[0]->mut(0), 1, 2));
  const StepCounts d = Stats::my_snapshot() - before;
  EXPECT_EQ(d.cas, static_cast<std::uint64_t>(k + 1));
  EXPECT_EQ(d.shared_writes, static_cast<std::uint64_t>(f + 2));
  for (auto* r : recs) EbrManager::retire(r);
}

// Two threads hammering increments on the same record through LLX/SCX:
// the final value must equal the number of successful SCXs (no lost or
// duplicated updates even with helping in play).
TEST(LlxScx, ConcurrentIncrementsAreExact) {
  Rec r(0, 0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      std::uint64_t mine = 0;
      for (int i = 0; i < kPerThread; ++i) {
        Epoch::Guard g;
        auto l = llx(&r);
        if (!l.ok()) continue;
        const LinkedLlx v[1] = {l.link()};
        if (scx(v, 1, 0, &r.mut(0), l.field(0), l.field(0) + 1)) ++mine;
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(r.mut(0).load(), successes.load());
  EXPECT_GT(successes.load(), 0u);
}

// Threads that come and go one after another reuse one descriptor slot,
// and the seq lives in the slot: every info word an LLX observes is new,
// and the slot table never grows past the live threads.
TEST(LlxScx, ShortLivedThreadsReuseSlotsWithFreshInfoWords) {
  constexpr int kThreads = 1000;
  Rec r(0, 0);
  const std::size_t base = ScxRecord::slots_in_use();
  std::vector<std::uint64_t> seen;
  std::size_t max_in_use = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::thread th([&] {
      Epoch::Guard g;
      auto l = llx(&r);
      ASSERT_TRUE(l.ok());
      seen.push_back(l.link().info);
      const LinkedLlx v[1] = {l.link()};
      ASSERT_TRUE(scx(v, 1, 0, &r.mut(0), l.field(0), l.field(0) + 1));
      max_in_use = std::max(max_in_use, ScxRecord::slots_in_use());
    });
    th.join();
  }
  EXPECT_EQ(r.mut(0).load(), static_cast<std::uint64_t>(kThreads));
  const std::set<std::uint64_t> distinct(seen.begin(), seen.end());
  EXPECT_EQ(distinct.size(), seen.size()) << "an info word recurred";
  EXPECT_LE(max_in_use, base + 1) << "slots were not returned at thread exit";
  EXPECT_EQ(ScxRecord::slots_in_use(), base);
}

// More threads than cores on identical k=3 V-sets: every SCX conflicts with
// every other, helpers are routinely preempted holding copies of operations
// their creators have long since decided and replaced, and the final value
// must still equal the number of successful SCXs.
TEST(LlxScx, OversubscribedIdenticalVSetsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Rec a(0, 0), b(0, 0), c(0, 0);
  std::atomic<std::uint64_t> successes{0};
  SpinBarrier start(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      std::uint64_t mine = 0;
      for (int i = 0; i < kPerThread; ++i) {
        Epoch::Guard g;
        auto la = llx(&a);
        auto lb = llx(&b);
        auto lc = llx(&c);
        if (!la.ok() || !lb.ok() || !lc.ok()) continue;
        const LinkedLlx v[3] = {la.link(), lb.link(), lc.link()};
        if (scx(v, 3, 0, &a.mut(0), la.field(0), la.field(0) + 1)) ++mine;
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(a.mut(0).load(), successes.load());
  EXPECT_GT(successes.load(), 0u);
}

// A helper that copied operation s and stalled until the slot's owner moved
// on to s+1 must not write the slot: its allFrozen and commit writes are
// CASes conditioned on s. (Deterministic form of the race the oversubscribed
// test exercises by chance.)
TEST(LlxScx, StaleHelperCannotWriteTheSlotsNextOperation) {
  Epoch::Guard g;
  Rec r(1, 0);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, 0, &r.mut(0), 1, 2));
  const std::uint64_t done = r.info_.load();  // operation s, committed
  ScxRecord& u = ScxRecord::of(done);
  const std::uint64_t next_seq = ScxRecord::seq_of(done) + 1;
  const std::uint64_t next =
      ScxRecord::state_word(next_seq, ScxRecord::kInProgress);
  u.word_.store(next);  // the owner's operation s+1 is now in progress
  detail_run(u, done, v, 1, 0, &r.mut(0), 1, 2, /*creator=*/false);
  EXPECT_EQ(u.word_.load(), next) << "a stale helper wrote the slot";
  EXPECT_EQ(r.mut(0).load(), 2u);
  u.word_.store(ScxRecord::state_word(
      next_seq, ScxRecord::kAllFrozen | ScxRecord::kCommitted));
}

// --- LLX's horizon (DESIGN.md §2) --------------------------------------------
//
// Each thread remembers, per descriptor slot, the largest seq it has read
// from the slot's state word. An info word below that horizon names a
// decided SCX, so LLX answers from the horizon without the slot's line.
// These pin that the answers stay Fig. 2's, setting slot words directly
// where a race would otherwise be needed.

// The horizon passed operation s: a record s finalized still reads
// FINALIZED, and an unmarked V-record of s still snapshots.
TEST(LlxHorizon, PassedOperationStillFinalizesAndSnapshots) {
  Epoch::Guard g;
  auto* fin = EbrManager::alloc<Rec>(1, 2);
  Rec keep(3, 4), later(5, 6);
  auto lk = llx(&keep);
  auto lf = llx(fin);
  ASSERT_TRUE(lk.ok());
  ASSERT_TRUE(lf.ok());
  const LinkedLlx v[2] = {lk.link(), lf.link()};
  ASSERT_TRUE(scx(v, 2, /*finalize fin=*/0b10, &keep.mut(0), 3, 30));
  const std::uint64_t s = keep.info_.load();
  auto ll = llx(&later);
  ASSERT_TRUE(ll.ok());
  const LinkedLlx w[1] = {ll.link()};
  ASSERT_TRUE(scx(w, 1, 0, &later.mut(0), 5, 50));  // operation s + 1
  ASSERT_EQ(ScxRecord::seq_of(later.info_.load()), ScxRecord::seq_of(s) + 1);
  ASSERT_TRUE(llx(&later).ok());  // reads the slot at s + 1: the horizon

  EXPECT_TRUE(llx(fin).is_finalized());
  auto k2 = llx(&keep);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k2.field(0), 30u);
  EXPECT_EQ(k2.field(1), 4u);
  EXPECT_EQ(k2.link().info, s);
  EbrManager::retire(fin);
}

// An info word naming the seq the horizon holds is read from the slot: with
// that operation in progress (its state word set back, as a creator between
// its freezes and its commit leaves it), LLX helps it and reads FAIL.
TEST(LlxHorizon, OperationAtTheHorizonIsStillHelped) {
  Epoch::Guard g;
  Rec r(1, 0);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, 0, &r.mut(0), 1, 2));
  const std::uint64_t s = r.info_.load();
  ASSERT_TRUE(llx(&r).ok());  // reads the slot at s: the horizon holds s
  ScxRecord& u = ScxRecord::of(s);
  const std::uint64_t seq = ScxRecord::seq_of(s);
  u.word_.store(ScxRecord::state_word(seq, ScxRecord::kInProgress));
  const StepCounts before = Stats::my_snapshot();
  EXPECT_TRUE(llx(&r).failed());
  if (kStepCounting) {
    EXPECT_EQ((Stats::my_snapshot() - before).helps, 1u);
  }
  EXPECT_EQ(u.word_.load(),
            ScxRecord::state_word(
                seq, ScxRecord::kAllFrozen | ScxRecord::kCommitted))
      << "the help must commit s";
  EXPECT_EQ(r.mut(0).load(), 2u);
  EXPECT_TRUE(llx(&r).ok());
}

// A slot's next owner continues the seqs of the one before, so a horizon
// this thread learned from the old owner lies below every operation of the
// new one: the new owner's operation in progress is helped, not passed.
TEST(LlxHorizon, NewOwnersOperationIsNeverBelowTheHorizon) {
  Rec a(0, 0), b(0, 0);
  const auto commit_on_new_thread = [](Rec& r) {
    std::thread th([&r] {
      Epoch::Guard g;
      auto l = llx(&r);
      ASSERT_TRUE(l.ok());
      const LinkedLlx v[1] = {l.link()};
      ASSERT_TRUE(scx(v, 1, 0, &r.mut(0), 0, 1));
    });
    th.join();  // the thread's exit returns its slot
  };
  commit_on_new_thread(a);
  const std::uint64_t old_op = a.info_.load();
  Epoch::Guard g;
  ASSERT_TRUE(llx(&a).ok());  // the horizon for the slot: the old owner's seq
  commit_on_new_thread(b);
  const std::uint64_t new_op = b.info_.load();
  ASSERT_EQ(ScxRecord::slot_of(new_op), ScxRecord::slot_of(old_op))
      << "the second thread must reuse the first one's slot";
  EXPECT_EQ(ScxRecord::seq_of(new_op), ScxRecord::seq_of(old_op) + 1);
  ScxRecord& u = ScxRecord::of(new_op);
  const std::uint64_t seq = ScxRecord::seq_of(new_op);
  u.word_.store(ScxRecord::state_word(seq, ScxRecord::kInProgress));
  EXPECT_TRUE(llx(&b).failed());
  EXPECT_EQ(u.word_.load(),
            ScxRecord::state_word(
                seq, ScxRecord::kAllFrozen | ScxRecord::kCommitted));
  EXPECT_EQ(b.mut(0).load(), 1u);
}

TEST(LlxScxDeathTest, ExhaustingTheSlotTableAbortsNamingTheCap) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        for (std::size_t i = 0; i <= ScxRecord::kMaxSlots; ++i) {
          ScxRecord::claim();
        }
      },
      "kMaxSlots = 1024");
}

}  // namespace
}  // namespace llxscx
