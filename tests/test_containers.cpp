// E9's containers (stack / queue / hash map on LLX/SCX via ScxOp): the
// semantics BEYOND the unified container concept — payload ordering
// through pop()/dequeue() — plus pinned SCX shapes per operation and
// 4-thread stresses (value conservation for the LIFO/FIFO containers, the
// locked-oracle harness for the map), each ending with a fully drained
// epoch. The generic insert/erase/contains/size contract lives in
// test_container_conformance.cpp; the map's upsert/get value visibility
// and occupancy profile live in test_hashmap_resize.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "ds/queue_llxscx.h"
#include "ds/stack_llxscx.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

static_assert(LlxScxContainer<LlxScxStack>);
static_assert(LlxScxContainer<LlxScxQueue>);
static_assert(LlxScxContainer<LlxScxHashMap>);

// --- Stack ----------------------------------------------------------------

// LIFO payload order through pop() — beyond the generic concept, which
// only sees insert/erase booleans.
TEST(Stack, PopReturnsElementsInLifoOrder) {
  LlxScxStack s;
  EXPECT_FALSE(s.pop().has_value());
  EXPECT_TRUE(s.insert(1, 10));
  EXPECT_TRUE(s.insert(2, 20));
  EXPECT_TRUE(s.insert(3, 30));
  auto p = s.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 3u);
  EXPECT_EQ(p->second, 30u);
  EXPECT_TRUE(s.erase(999)) << "LIFO erase pops the top, ignoring the key";
  p = s.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 1u);
  EXPECT_FALSE(s.pop().has_value());
  Epoch::drain_all_for_testing();
}

// DESIGN.md §9: push is SCX(V=⟨head⟩, R=∅) — k=1 ⇒ 2 CAS, f=0 ⇒ 2 writes;
// pop is SCX(V=⟨head,top,succ⟩, R=⟨top,succ⟩) — k=3 ⇒ 4 CAS, f=2 ⇒ 4
// writes. Uncontended, so no retries inflate the counts.
TEST(Stack, PushPopScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxStack s;
  ASSERT_TRUE(s.push(1, 10));
  ASSERT_TRUE(s.push(2, 20));

  StepCounts d = steps_of([&] { ASSERT_TRUE(s.push(3, 30)); });
  EXPECT_EQ(d.llx_calls, 1u);
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 2u) << "push: k+1 CAS with k=1";
  EXPECT_EQ(d.shared_writes, 2u) << "push: f+2 writes with f=0";
  EXPECT_EQ(d.allocations, 1u) << "1 fresh node";
  EXPECT_EQ(d.retires, 0u) << "push: R = ∅";

  d = steps_of([&] { ASSERT_TRUE(s.pop().has_value()); });
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "pop: k+1 CAS with k=3";
  EXPECT_EQ(d.shared_writes, 4u) << "pop: f+2 writes with f=2";
  EXPECT_EQ(d.allocations, 1u) << "1 successor copy";
  EXPECT_EQ(d.retires, 2u) << "pop: R = ⟨top, succ⟩";
  Epoch::drain_all_for_testing();
}

TEST(StackStress, ConservesValuesUnderContention) {
  constexpr int kThreads = 4;
  LlxScxStack s;
  std::vector<std::vector<std::uint64_t>> pushed(kThreads);
  std::vector<std::vector<std::uint64_t>> popped(kThreads);

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 4000,
      [&](int th, Xoshiro256& rng, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0, seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (rng.percent(50)) {
            // Tag each value with its producer so duplicates would show.
            const std::uint64_t v =
                (static_cast<std::uint64_t>(th + 1) << 48) | ++seq;
            s.push(v, v ^ 0xABCD);
            pushed[th].push_back(v);
          } else {
            const auto p = s.pop();
            if (p.has_value()) {
              EXPECT_EQ(p->second, p->first ^ 0xABCD) << "torn element";
              popped[th].push_back(p->first);
            }
          }
          ++ops;
        }
        return ops;
      });

  // Conservation: every pushed value was popped exactly once or is still
  // in the stack, and nothing else ever came out.
  std::vector<std::uint64_t> in, out;
  for (const auto& v : pushed) in.insert(in.end(), v.begin(), v.end());
  for (const auto& v : popped) out.insert(out.end(), v.begin(), v.end());
  for (const auto& [k, v] : s.items()) {
    EXPECT_EQ(v, k ^ 0xABCD);
    out.push_back(k);
  }
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(in, out) << "stack lost or duplicated elements";

  EXPECT_GT(total_ops, 0u);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "all retired nodes/descriptors must drain once threads quiesce";
}

// --- Bare stack/queue scans -----------------------------------------------

// container_range, container_scan and container_scan_n answer the bare
// stack and queue from items(), which must walk under a reclamation guard:
// two push/pop threads retire nodes while a scan loop walks the chain, and
// an unguarded walk reads blocks EbrManager has already recycled (which
// ASan reports). Every reported element must be live (value == key), and
// the epoch must drain to zero afterwards.
template <class C>
class SequenceScan : public ::testing::Test {};
using Sequences = ::testing::Types<LlxScxStack, LlxScxQueue>;
TYPED_TEST_SUITE(SequenceScan, Sequences);

TYPED_TEST(SequenceScan, ScansUnderPushPopChurnSeeOnlyLiveElements) {
  std::atomic<std::uint64_t> scans{0}, torn{0};
  {
    TypeParam c;
    testing::run_stress_workers(
        3, 0x5CA7, [&](int t, Xoshiro256& rng, const std::atomic<bool>& stop) {
          RangeOut got;
          std::uint64_t ops = 0, bad = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            ++ops;
            if (t == 0) {  // the scan loop, through all three fallbacks
              got.clear();
              if (ops % 3 == 0) container_scan_n(c, 64, got);
              if (ops % 3 == 1) container_range(c, 0, ~std::uint64_t{0}, got);
              if (ops % 3 == 2) container_scan(c, 1, 1024, 64, got);
              for (const auto& [k, v] : got) bad += v != k;
              continue;
            }
            // Two pop-heavy updaters keep the chain short, so every scan
            // walks the nodes they are retiring.
            const std::uint64_t key = 1 + rng.below(std::uint64_t{1} << 16);
            if (rng.percent(40)) {
              c.insert(key, key);
            } else {
              c.erase(key);
            }
          }
          if (t == 0) {
            scans += ops;
            torn += bad;
          }
          return ops;
        });
  }
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << TypeParam::kName << ": torn scan element";
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// --- Queue ----------------------------------------------------------------

// FIFO payload order through dequeue(), plus the tail-sentinel
// replacement cycle on drain-and-refill.
TEST(Queue, DequeueReturnsElementsInFifoOrder) {
  LlxScxQueue q;
  EXPECT_FALSE(q.dequeue().has_value());
  for (std::uint64_t k = 1; k <= 5; ++k) EXPECT_TRUE(q.insert(k, k * 10));
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->first, k) << "FIFO order";
    EXPECT_EQ(p->second, k * 10);
  }
  EXPECT_FALSE(q.dequeue().has_value());
  // Drain-and-refill exercises the tail-sentinel replacement cycle.
  EXPECT_TRUE(q.enqueue(7, 70));
  const auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 7u);
  Epoch::drain_all_for_testing();
}

// DESIGN.md §9: enqueue is SCX(V=⟨last,tail⟩, R=⟨tail⟩) — k=2 ⇒ 3 CAS,
// f=1 ⇒ 3 writes, 2 allocs (node + fresh tail); dequeue is
// SCX(V=⟨head,first⟩, R=⟨first⟩) with the successor HANDED OFF, not
// copied — k=2 ⇒ 3 CAS, f=1 ⇒ 3 writes, and nothing is allocated (the
// SCX reuses its thread's descriptor slot). On top of the SCX, the tail hint costs enqueue exactly one
// publish CAS and dequeue exactly one invalidation write — pinned here so
// the hint can never silently grow the shapes; the SCX itself staying
// k=2 is pinned by the llx count (2 = the V-set) and the 3-CAS/3-write
// SCX core inside the totals.
TEST(Queue, EnqueueDequeueScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxQueue q;
  ASSERT_TRUE(q.enqueue(1, 10));
  ASSERT_TRUE(q.enqueue(2, 20));

  StepCounts d = steps_of([&] { ASSERT_TRUE(q.enqueue(3, 30)); });
  EXPECT_EQ(d.llx_calls, 2u) << "enqueue stays k=2: hint LLX doubles as V[0]";
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "enqueue: k+1 CAS with k=2, + 1 hint-publish CAS";
  EXPECT_EQ(d.shared_writes, 3u) << "enqueue: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 2u) << "node + fresh tail";
  EXPECT_EQ(d.retires, 1u) << "enqueue: R = ⟨tail⟩";

  d = steps_of([&] { ASSERT_TRUE(q.dequeue().has_value()); });
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "dequeue: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 4u)
      << "dequeue: f+2 writes with f=1, + 1 hint-invalidate write";
  EXPECT_EQ(d.allocations, 0u) << "handoff: nothing allocated";
  EXPECT_EQ(d.retires, 1u) << "dequeue: R = ⟨first⟩";
  Epoch::drain_all_for_testing();
}

// The ROADMAP O(length)-enqueue item: with the tail hint warm, an enqueue
// into a LONG queue must not walk the list — its shared-read cost stays
// constant (hint load + two LLXes) instead of O(length), while the SCX
// stays the same k=2 shape. And once a dequeue stamps the hint out, the
// next enqueue falls back to the full walk and still commits.
TEST(Queue, TailHintMakesLongQueueEnqueueConstant) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  constexpr std::uint64_t kLen = 512;
  LlxScxQueue q;
  for (std::uint64_t i = 1; i <= kLen; ++i) ASSERT_TRUE(q.enqueue(i, i));

  StepCounts d = steps_of([&] { ASSERT_TRUE(q.enqueue(kLen + 1, 0)); });
  EXPECT_EQ(d.llx_calls, 2u) << "hint hit: k=2, no extra validation LLX";
  EXPECT_EQ(d.cas, 4u) << "3 SCX CAS + 1 hint publish";
  EXPECT_LT(d.shared_reads, 20u)
      << "a warm hint must keep enqueue O(1); " << kLen
      << " elements would cost O(length) reads on the fallback walk";

  // Stamp the hint out via a dequeue; the fallback walk now pays
  // O(length) reads but must still produce a correct k=2 commit.
  ASSERT_TRUE(q.dequeue().has_value());
  d = steps_of([&] { ASSERT_TRUE(q.enqueue(kLen + 2, 0)); });
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_GT(d.shared_reads, kLen) << "stamped hint ⇒ full walk from head";
  EXPECT_EQ(q.size(), kLen + 1);
  Epoch::drain_all_for_testing();
}

TEST(QueueStress, ConservesValuesAndPerProducerOrder) {
  constexpr int kThreads = 4;
  LlxScxQueue q;
  std::vector<std::vector<std::uint64_t>> enqueued(kThreads);
  std::vector<std::vector<std::uint64_t>> dequeued(kThreads);

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 5000,
      [&](int th, Xoshiro256& rng, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0, seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (rng.percent(50)) {
            const std::uint64_t v =
                (static_cast<std::uint64_t>(th + 1) << 48) | ++seq;
            q.enqueue(v, v ^ 0xF1F0);
            enqueued[th].push_back(v);
          } else {
            const auto p = q.dequeue();
            if (p.has_value()) {
              EXPECT_EQ(p->second, p->first ^ 0xF1F0) << "torn element";
              dequeued[th].push_back(p->first);
            }
          }
          ++ops;
        }
        return ops;
      });

  // Conservation, exactly as for the stack.
  std::vector<std::uint64_t> in, out;
  for (const auto& v : enqueued) in.insert(in.end(), v.begin(), v.end());
  for (const auto& v : dequeued) out.insert(out.end(), v.begin(), v.end());
  std::vector<std::uint64_t> remaining;
  for (const auto& [k, v] : q.items()) {
    EXPECT_EQ(v, k ^ 0xF1F0);
    remaining.push_back(k);
    out.push_back(k);
  }
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(in, out) << "queue lost or duplicated elements";

  // FIFO: one producer's values pass through the queue in sequence order,
  // so every consumer's view of that producer — and the final queue
  // content — must be a subsequence of it (strictly increasing seq).
  const auto check_increasing = [](const std::vector<std::uint64_t>& vals,
                                   const char* where) {
    std::uint64_t last[kThreads + 1] = {};
    for (const std::uint64_t v : vals) {
      const std::size_t producer = v >> 48;
      const std::uint64_t seq = v & ((std::uint64_t{1} << 48) - 1);
      EXPECT_GT(seq, last[producer]) << "FIFO violation in " << where;
      last[producer] = seq;
    }
  };
  for (int c = 0; c < kThreads; ++c) check_increasing(dequeued[c], "consumer");
  check_increasing(remaining, "final queue");

  EXPECT_GT(total_ops, 0u);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "all retired nodes/descriptors must drain once threads quiesce";
}

// --- Hash map ---------------------------------------------------------------

// DESIGN.md §9 — the multiset's shapes, per bucket: upsert-absent k=1 ⇒
// 2 CAS / 2 writes, upsert-present k=2 ⇒ 3 CAS / 3 writes (node
// replacement), erase k=3 ⇒ 4 CAS / 4 writes (full-delete, successor
// copied).
TEST(HashMap, BucketScxShapesArePinned) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxHashMap m(8);

  StepCounts d = steps_of([&] { ASSERT_TRUE(m.upsert(5, 50)); });
  EXPECT_EQ(d.llx_calls, 1u);
  EXPECT_EQ(d.llx_fail, 0u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 2u) << "upsert-absent: k+1 CAS with k=1";
  EXPECT_EQ(d.shared_writes, 2u) << "upsert-absent: f+2 writes with f=0";
  EXPECT_EQ(d.allocations, 1u) << "1 fresh node";
  EXPECT_EQ(d.retires, 0u) << "upsert-absent: R = ∅";

  d = steps_of([&] { ASSERT_FALSE(m.upsert(5, 51)); });
  EXPECT_EQ(d.llx_calls, 2u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 3u) << "upsert-present: k+1 CAS with k=2";
  EXPECT_EQ(d.shared_writes, 3u) << "upsert-present: f+2 writes with f=1";
  EXPECT_EQ(d.allocations, 1u) << "1 replacement node";
  EXPECT_EQ(d.retires, 1u) << "upsert-present: R = ⟨cur⟩";

  d = steps_of([&] { ASSERT_TRUE(m.erase(5)); });
  EXPECT_EQ(d.llx_calls, 3u);
  EXPECT_EQ(d.scx_calls, 1u);
  EXPECT_EQ(d.scx_fail, 0u);
  EXPECT_EQ(d.cas, 4u) << "erase: k+1 CAS with k=3";
  EXPECT_EQ(d.shared_writes, 4u) << "erase: f+2 writes with f=2";
  EXPECT_EQ(d.allocations, 1u) << "1 successor copy";
  EXPECT_EQ(d.retires, 2u) << "erase: R = ⟨cur, succ⟩";
  Epoch::drain_all_for_testing();
}

// An upsert of a present key never lengthens its chain, so it stops at its
// key: the same replace reads as many shared words whatever follows the
// key in its bucket. Both maps keep one bucket (four items stay below the
// growth trigger's 8-item walk), and 5 heads both chains.
TEST(HashMap, PresentKeyUpsertStopsAtItsKey) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  LlxScxHashMap alone(1);
  LlxScxHashMap ahead(1);
  ASSERT_TRUE(alone.upsert(5, 50));
  for (std::uint64_t k : {5, 6, 7, 8}) ASSERT_TRUE(ahead.upsert(k, k * 10));
  ASSERT_EQ(ahead.bucket_count(), 1u);

  StepCounts d[2];
  LlxScxHashMap* maps[2] = {&alone, &ahead};
  for (int i = 0; i < 2; ++i) {
    d[i] = steps_of([&] { ASSERT_FALSE(maps[i]->upsert(5, 51)); });
    EXPECT_EQ(d[i].llx_calls, 2u);
    EXPECT_EQ(d[i].scx_calls, 1u);
    EXPECT_EQ(d[i].scx_fail, 0u);
    EXPECT_EQ(d[i].cas, 3u) << "upsert-present: k+1 CAS with k=2";
  }
  EXPECT_EQ(d[0].shared_reads, d[1].shared_reads)
      << "a present-key upsert walked the chain past its key";
  Epoch::drain_all_for_testing();
}

TEST(HashMapStress, MatchesLockedOracleUnderContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 256;

  // 16 buckets for 256 keys: long chains, so bucket-internal SCX conflicts
  // actually happen, and the table grows under them, so they also race
  // live migrations (the conformance stress's 1024 buckets never grow).
  LlxScxHashMap m(16);
  testing::KeyedOracle oracle;  // net membership per key (0 or 1)

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 6000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < 35) {
            if (m.upsert(key, key ^ 0xBEEF)) rec.add(key, 1);
          } else if (dice < 70) {
            if (m.erase(key)) rec.add(key, -1);
          } else {
            const auto v = m.get(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key ^ 0xBEEF);
            }
          }
          ++ops;
        }
        return ops;
      });

  for (std::uint64_t key = 1; key <= kKeySpace; ++key) {
    const std::int64_t net = oracle.net(key);
    ASSERT_TRUE(net == 0 || net == 1) << "oracle accounting bug at " << key;
    EXPECT_EQ(m.contains(key), net == 1) << "divergence at key " << key;
  }

  // Structural sanity: every stored pair is consistent and each key
  // appears exactly once across all buckets.
  std::vector<std::uint64_t> keys;
  for (const auto& [key, value] : m.items()) {
    EXPECT_EQ(value, key ^ 0xBEEF);
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end())
      << "duplicate key across buckets";
  EXPECT_EQ(keys.size(), m.size());

  EXPECT_GT(total_ops, 0u);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "all retired nodes/descriptors must drain once threads quiesce";
}

}  // namespace
}  // namespace llxscx
