// RecordManager policy conformance (DESIGN.md §10): the two managers
// (EbrManager / LeakyManager) against the contract every structure relies
// on — alloc constructs, dealloc destroys immediately, retire destroys
// exactly once after a drain (or never, for the leaky policy, whose drop
// is itself pinned), EbrManager's banked storage is observably reused and
// stays poisoned for AddressSanitizer while banked — plus multiset and
// queue stresses whose recycled addresses flow back into live structures
// under real SCX helping/contention (TSAN and ASAN ride along via the
// sanitizer CI jobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <thread>
#include <type_traits>
#include <vector>

#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/queue_llxscx.h"
#include "reclaim/record_manager.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

struct Payload {
  static std::atomic<int> live;       // constructed minus destroyed
  static std::atomic<int> destroyed;  // destructor runs (exactly-once net)

  explicit Payload(int v = 0) : value(v) { live.fetch_add(1); }
  ~Payload() {
    live.fetch_sub(1);
    destroyed.fetch_add(1);
  }
  int value;
};
std::atomic<int> Payload::live{0};
std::atomic<int> Payload::destroyed{0};

// LeakyManager drops retired payloads by design; parking them here keeps
// them reachable so the leak is the policy's documented behavior, not a
// sanitizer finding.
std::vector<Payload*>& leak_park() {
  static auto* v = new std::vector<Payload*>;
  return *v;
}

template <typename M>
class RecordManagerConformance : public ::testing::Test {};
using Managers = ::testing::Types<EbrManager, LeakyManager>;
TYPED_TEST_SUITE(RecordManagerConformance, Managers);

TYPED_TEST(RecordManagerConformance, SatisfiesConcept) {
  static_assert(RecordManager<TypeParam>);
  EXPECT_STRNE(TypeParam::kName, "");
}

TYPED_TEST(RecordManagerConformance, AllocConstructsDeallocDestroysNow) {
  const ReclaimStats before = TypeParam::stats();
  const int live0 = Payload::live.load();
  Payload* p = TypeParam::template alloc<Payload>(7);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 7);
  EXPECT_EQ(Payload::live.load(), live0 + 1);
  TypeParam::template dealloc<Payload>(p);
  EXPECT_EQ(Payload::live.load(), live0) << "dealloc owes no grace period";
  const ReclaimStats d = TypeParam::stats() - before;
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.deallocs, 1u);
}

// Two inputs: the retires run on this thread, or on a worker that stays
// alive (blocked on a latch) through both drains — a live thread's
// retirees must be as visible to drain() and outstanding() as this
// thread's own.
TYPED_TEST(RecordManagerConformance, RetireDestroysExactlyOnceAfterDrain) {
  constexpr int kN = 100;
  for (const bool on_worker : {false, true}) {
    SCOPED_TRACE(on_worker ? "retired on a live worker" : "retired here");
    TypeParam::drain();
    const int live0 = Payload::live.load();
    const int destroyed0 = Payload::destroyed.load();
    const auto retire_all = [] {
      for (int i = 0; i < kN; ++i) {
        Payload* p = TypeParam::template alloc<Payload>(i);
        if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
          leak_park().push_back(p);
        }
        TypeParam::template retire<Payload>(p);
      }
    };
    std::latch retired(1), release(1);
    std::thread worker;
    if (on_worker) {
      worker = std::thread([&] {
        retire_all();
        retired.count_down();
        release.wait();
      });
      retired.wait();
    } else {
      retire_all();
    }
    TypeParam::drain();
    TypeParam::drain();  // a second drain must not double-destroy
    if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
      EXPECT_EQ(Payload::destroyed.load(), destroyed0)
          << "the leaky policy never runs destructors on retired nodes";
      EXPECT_EQ(Payload::live.load(), live0 + kN);
    } else {
      EXPECT_EQ(Payload::destroyed.load(), destroyed0 + kN)
          << "every retired node destroyed exactly once";
      EXPECT_EQ(Payload::live.load(), live0);
      EXPECT_EQ(Epoch::outstanding(), 0u) << "drain-to-zero";
    }
    release.count_down();
    if (worker.joinable()) worker.join();
  }
}

// A retire under a live guard must not destroy before the guard drops —
// the grace property every structure's traversals lean on. (Leaky holds
// it vacuously; asserting it for both keeps the contract uniform.)
TYPED_TEST(RecordManagerConformance, NoDestructionUnderLiveGuard) {
  TypeParam::drain();
  const int live0 = Payload::live.load();
  {
    Epoch::Guard g;
    Payload* p = TypeParam::template alloc<Payload>(1);
    if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
      leak_park().push_back(p);
    }
    TypeParam::template retire<Payload>(p);
    // Churn enough retires to cross the epoch scan period several times:
    // our own guard must still hold p's destruction back.
    for (int i = 0; i < 1000; ++i) {
      Payload* q = TypeParam::template alloc<Payload>(i);
      if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
        leak_park().push_back(q);
      }
      TypeParam::template retire<Payload>(q);
    }
    EXPECT_EQ(Payload::live.load(), live0 + 1001)
        << "nothing may be destroyed while this guard is live";
  }
  TypeParam::drain();
  if constexpr (!std::is_same_v<TypeParam, LeakyManager>) {
    EXPECT_EQ(Payload::live.load(), live0);
  }
}

// Recycling: after a retire drains, the storage is handed back by the
// next alloc of the same type — observable both through the stats and as
// literal address reuse (per-thread LIFO free list ⇒ same block).
TEST(EbrManager, RetiredStorageIsReused) {
  struct ReuseProbe {
    explicit ReuseProbe(int v) : value(v) {}
    int value;
  };
  EbrManager::drain();
  // Free lists are size-classed, not per-type: blocks banked by earlier
  // tests in ReuseProbe's class would satisfy (and miscount) the first
  // alloc below, so start from an empty thread cache.
  EbrManager::purge_thread_cache();
  const ReclaimStats before = EbrManager::stats();
  ReuseProbe* first = EbrManager::alloc<ReuseProbe>(1);
  const void* first_addr = first;
  EbrManager::retire(first);
  EbrManager::drain();  // grace elapses; block lands in THIS thread's bank
  ReuseProbe* second = EbrManager::alloc<ReuseProbe>(2);
  EXPECT_EQ(static_cast<const void*>(second), first_addr)
      << "LIFO per-thread bank must hand the drained block straight back";
  EXPECT_EQ(second->value, 2) << "placement-new re-ran the constructor";
  const ReclaimStats d = EbrManager::stats() - before;
  EXPECT_EQ(d.allocs, 2u);
  EXPECT_EQ(d.pool_hits, 1u) << "exactly the second alloc hit the bank";
  EbrManager::dealloc(second);
}

// An unpublished node (the ScxOp abort path) is recycled immediately —
// no drain needed for the bank to serve it back.
TEST(EbrManager, DeallocRecyclesWithoutGrace) {
  struct AbortProbe {
    int x = 0;
  };
  EbrManager::purge_thread_cache();  // same-class blocks from earlier tests
  const ReclaimStats before = EbrManager::stats();
  AbortProbe* p = EbrManager::alloc<AbortProbe>();
  const void* addr = p;
  EbrManager::dealloc(p);
  AbortProbe* q = EbrManager::alloc<AbortProbe>();
  EXPECT_EQ(static_cast<const void*>(q), addr);
  const ReclaimStats d = EbrManager::stats() - before;
  EXPECT_EQ(d.pool_hits, 1u);
  EbrManager::dealloc(q);
}

// Recycling must not hide use-after-free from AddressSanitizer: a banked
// block stays poisoned until alloc() hands it out again, so reading a
// retired record after its grace period is still reported.
TEST(EbrManagerDeathTest, ReadingADrainedRecordIsUseAfterPoison) {
#if defined(__SANITIZE_ADDRESS__)
  struct Probe {
    std::uint64_t word = 42;
  };
  EXPECT_DEATH(
      {
        Probe* p = EbrManager::alloc<Probe>();
        EbrManager::retire(p);
        EbrManager::drain();
        const volatile std::uint64_t* word = &p->word;
        std::printf("%llu\n", static_cast<unsigned long long>(*word));
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

// A long whole-table walk must not stall other threads' reclamation: the
// hash map's occupancy()/size()/items() re-enter their epoch guard per
// bucket, so another thread's retire→drain completes WHILE the walk is
// still in flight. (The old single-guard walk pinned the epoch for the
// whole table: at millions of keys, unbounded garbage for everyone.) The
// walker publishes a generation counter — odd while inside one
// occupancy() call — and the test requires a payload retired after a walk
// began to be destroyed before that SAME walk ends.
TEST(EbrManagerWalks, OccupancyWalkDoesNotBlockAnotherThreadsDrain) {
  constexpr std::uint64_t kKeys = 60'000;
  LlxScxHashMap m(1);
  for (std::uint64_t k = 1; k <= kKeys; ++k) m.upsert(k, k);
  EbrManager::drain();

  std::atomic<std::uint64_t> gen{0};  // odd ⇔ a walk is in flight
  std::atomic<bool> stop{false};
  std::thread walker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      gen.fetch_add(1, std::memory_order_release);
      m.occupancy();
      gen.fetch_add(1, std::memory_order_release);
    }
  });

  bool drained_mid_walk = false;
  for (int attempt = 0; attempt < 50 && !drained_mid_walk; ++attempt) {
    // Catch the START of a fresh walk so most of it is still ahead.
    const std::uint64_t before = gen.load(std::memory_order_acquire);
    std::uint64_t g;
    do {
      g = gen.load(std::memory_order_acquire);
    } while (g == before || g % 2 == 0);
    const int destroyed0 = Payload::destroyed.load();
    Payload* p = EbrManager::alloc<Payload>(attempt);
    EbrManager::retire(p);
    while (gen.load(std::memory_order_acquire) == g) {
      EbrManager::drain();
      if (Payload::destroyed.load() > destroyed0) {
        // Destroyed while generation g's walk is still running — the
        // walk provably did not pin the epoch end to end.
        drained_mid_walk = gen.load(std::memory_order_acquire) == g;
        break;
      }
    }
  }
  stop.store(true);
  walker.join();
  EXPECT_TRUE(drained_mid_walk)
      << "a retire during an occupancy walk never drained until the walk "
         "ended — the walk is holding one guard across every bucket";
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// --- Structure stresses over recycled storage ----------------------------
//
// The conformance suite above exercises the policy in isolation; these
// run it under real SCX helping: recycled addresses flow back into live
// structures while other threads hold guards into the old incarnations —
// exactly the reuse the grace period must make invisible.

TEST(RecyclingStress, MultisetMatchesLockedOracleUnderContention) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 128;

  BasicLlxScxMultiset<EbrManager> ms;
  testing::KeyedOracle oracle;

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 7000,
      [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
        testing::KeyedOracle::Recorder rec(oracle);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key =
              testing::skewed_key(rng, kHotKeys, kKeySpace);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < 40) {
            if (ms.insert(key, 1)) rec.add(key, 1);
          } else if (dice < 80) {
            const std::uint64_t removed = ms.erase(key, 1);
            if (removed != 0) {
              rec.add(key, -static_cast<std::int64_t>(removed));
            }
          } else {
            ms.get(key);
          }
          ++ops;
        }
        return ops;
      });

  for (std::uint64_t key = 1; key <= kKeySpace; ++key) {
    const std::int64_t net = oracle.net(key);
    ASSERT_GE(net, 0) << "oracle accounting bug at " << key;
    EXPECT_EQ(ms.get(key), static_cast<std::uint64_t>(net))
        << "divergence at key " << key;
  }
  EXPECT_GT(total_ops, 0u);
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u)
      << "recycling retires must still drain the epoch to zero";
}

TEST(RecyclingStress, QueueConservesValuesWithTailHint) {
  constexpr int kThreads = 4;
  BasicLlxScxQueue<EbrManager> q;
  std::vector<std::vector<std::uint64_t>> enqueued(kThreads);
  std::vector<std::vector<std::uint64_t>> dequeued(kThreads);

  const std::uint64_t total_ops = testing::run_stress_workers(
      kThreads, 8000,
      [&](int th, Xoshiro256& rng, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0, seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          // Enqueue-biased so the queue grows and the tail hint actually
          // shortcuts walks over recycled-node territory.
          if (rng.percent(60)) {
            const std::uint64_t v =
                (static_cast<std::uint64_t>(th + 1) << 48) | ++seq;
            q.enqueue(v, v ^ 0xD00D);
            enqueued[th].push_back(v);
          } else {
            const auto p = q.dequeue();
            if (p.has_value()) {
              EXPECT_EQ(p->second, p->first ^ 0xD00D) << "torn element";
              dequeued[th].push_back(p->first);
            }
          }
          ++ops;
        }
        return ops;
      });

  std::vector<std::uint64_t> in, out;
  for (const auto& v : enqueued) in.insert(in.end(), v.begin(), v.end());
  for (const auto& v : dequeued) out.insert(out.end(), v.begin(), v.end());
  for (const auto& [k, v] : q.items()) {
    EXPECT_EQ(v, k ^ 0xD00D);
    out.push_back(k);
  }
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(in, out) << "queue lost or duplicated elements under recycling";

  EXPECT_GT(total_ops, 0u);
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx
