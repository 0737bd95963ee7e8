// Batched-operation conformance (DESIGN.md §14): container_multi_get /
// container_apply_batch over EVERY engine — the seven structures and their
// ShardedMap wrappers — plus EbrManager's size-classed banks.
//
// What is pinned here:
//   - multi_get answers exactly like per-key contains (quiescently, and
//     for stable keys under concurrent updates to disjoint keys);
//   - apply_batch answers positionally and preserves per-key program
//     order (batch.h's contract), including duplicate keys, empty
//     batches, and n == 1;
//   - the hashmap's interleaved lanes survive a live bucket migration
//     (the kMoved/kDone routing is per lane);
//   - EbrManager's free lists are size-classed by malloc chunk size:
//     reuse is by address equality WITHIN a class and never across
//     classes, and a thread banks at most kBankCap blocks per class.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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
#include "service/batch.h"
#include "service/sharded_map.h"
#include "util/random.h"

#include "tests/test_common.h"
#include "tests/test_engines.h"

namespace llxscx {
namespace {

template <class C>
class BatchConformance : public ::testing::Test {};

TYPED_TEST_SUITE(BatchConformance, Containers);

// multi_get == per-key contains on a quiescent container, across present,
// absent, and duplicate keys; empty batches and n == 1 are no-ops/scalar.
TYPED_TEST(BatchConformance, MultiGetMatchesContainsQuiescent) {
  {
    TypeParam c;
    for (std::uint64_t k = 2; k <= 128; k += 2) c.insert(k, 1);

    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 140; ++k) keys.push_back(k);
    keys.push_back(64);  // duplicates answered independently
    keys.push_back(64);
    keys.push_back(63);

    std::vector<char> got(keys.size(), 2);
    container_multi_get(c, keys.data(), keys.size(),
                        reinterpret_cast<bool*>(got.data()));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(static_cast<bool>(got[i]), c.contains(keys[i]))
          << "key " << keys[i] << " at position " << i;
    }

    bool one = false;
    container_multi_get(c, keys.data(), 1, &one);
    EXPECT_EQ(one, c.contains(keys[0]));
    container_multi_get(c, keys.data(), 0, nullptr);  // empty: must not touch

    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// apply_batch answers positionally: out[i] is exactly what the scalar verb
// at position i would have returned, per family semantics — duplicate keys
// in one batch exercise the per-key program-order contract.
TYPED_TEST(BatchConformance, ApplyBatchPreservesInputOrderPerKey) {
  {
    TypeParam c;
    if constexpr (kIsSeq<TypeParam>) {
      // Sequence family: erase pops some element; conservation, not keys.
      std::vector<BatchOp> ins, del;
      for (std::uint64_t k = 1; k <= 6; ++k) ins.push_back(BatchOp::insert(k, 1));
      for (std::uint64_t k = 1; k <= 6; ++k) del.push_back(BatchOp::erase(k));
      std::vector<BatchResult> r(6);
      container_apply_batch(c, ins.data(), 6, r.data());
      for (int i = 0; i < 6; ++i) EXPECT_TRUE(r[i].ok) << "push " << i;
      EXPECT_EQ(c.size(), 6u);
      container_apply_batch(c, del.data(), 6, r.data());
      for (int i = 0; i < 6; ++i) EXPECT_TRUE(r[i].ok) << "pop " << i;
      EXPECT_EQ(c.size(), 0u);
      BatchOp extra = BatchOp::erase(1);
      BatchResult er;
      container_apply_batch(c, &extra, 1, &er);
      EXPECT_FALSE(er.ok) << "pop from empty";
    } else if constexpr (kIsBag<TypeParam>) {
      // Multiset family: duplicate inserts stack copies; erase removes one.
      const BatchOp ops[] = {BatchOp::insert(7, 1), BatchOp::insert(7, 1),
                             BatchOp::get(7),       BatchOp::erase(7),
                             BatchOp::get(7),       BatchOp::erase(7),
                             BatchOp::get(7)};
      const bool expect[] = {true, true, true, true, true, true, false};
      BatchResult r[7];
      container_apply_batch(c, ops, 7, r);
      for (int i = 0; i < 7; ++i) EXPECT_EQ(r[i].ok, expect[i]) << "op " << i;
    } else {
      // Map family: duplicate insert rejected, erase is by key.
      const BatchOp ops[] = {BatchOp::insert(7, 1), BatchOp::get(7),
                             BatchOp::insert(7, 2), BatchOp::erase(7),
                             BatchOp::get(7),       BatchOp::erase(7)};
      const bool expect[] = {true, true, false, true, false, false};
      BatchResult r[6];
      container_apply_batch(c, ops, 6, r);
      for (int i = 0; i < 6; ++i) EXPECT_EQ(r[i].ok, expect[i]) << "op " << i;
    }
    container_apply_batch(c, nullptr, 0, nullptr);  // empty batch: no-op
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// A batch of mixed ops answers exactly like its scalar replay on an
// identical container (keyed families: results are a function of per-key
// history, which both dispatches preserve).
TYPED_TEST(BatchConformance, ApplyBatchMatchesScalarReplay) {
  if constexpr (!kKeyedErase<TypeParam>) {
    GTEST_SKIP() << "sequence pops are order-global; covered above";
  } else {
    TypeParam batched, scalar;
    Xoshiro256 rng(0xBA7C4);
    constexpr std::size_t kOps = 192;  // > one multi_get run and one chunk
    std::vector<BatchOp> ops;
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::uint64_t key = 1 + rng.below(32);  // dense: plenty of dups
      const unsigned dice = static_cast<unsigned>(rng.below(3));
      ops.push_back(dice == 0   ? BatchOp::get(key)
                    : dice == 1 ? BatchOp::insert(key, 1)
                                : BatchOp::erase(key));
    }
    std::vector<BatchResult> got(kOps);
    container_apply_batch(batched, ops.data(), kOps, got.data());
    for (std::size_t i = 0; i < kOps; ++i) {
      bool want = false;
      switch (ops[i].kind) {
        case BatchOpKind::kGet:
          want = scalar.contains(ops[i].key);
          break;
        case BatchOpKind::kInsert:
          want = scalar.insert(ops[i].key, ops[i].value);
          break;
        case BatchOpKind::kErase:
          want = scalar.erase(ops[i].key);
          break;
      }
      EXPECT_EQ(got[i].ok, want) << "op " << i;
    }
    EXPECT_EQ(batched.size(), scalar.size());
    for (std::uint64_t k = 1; k <= 32; ++k) {
      EXPECT_EQ(batched.contains(k), scalar.contains(k)) << "key " << k;
    }
  }
}

// Stable keys read true (and absent keys false) through multi_get while
// other threads churn a DISJOINT key range — the locked-oracle shape of
// the §9 stress, specialized to reads whose answers are invariant.
TYPED_TEST(BatchConformance, MultiGetAgreesUnderConcurrentUpdates) {
  if constexpr (!kKeyedErase<TypeParam>) {
    GTEST_SKIP() << "sequence erase pops arbitrary elements — no key is "
                    "stable under churn";
  } else {
    constexpr std::uint64_t kStableBase = 1000;
    constexpr std::size_t kStable = 64;  // evens present, odds absent
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
          Xoshiro256 rng(0x5EED + static_cast<unsigned>(t));
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
      std::vector<std::uint64_t> keys(kStable);
      for (std::size_t i = 0; i < kStable; ++i) keys[i] = kStableBase + i;
      std::vector<char> got(kStable);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(
                                std::max<std::uint64_t>(
                                    100, testing::stress_millis() / 4));
      std::uint64_t rounds = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        container_multi_get(c, keys.data(), kStable,
                            reinterpret_cast<bool*>(got.data()));
        for (std::size_t i = 0; i < kStable; ++i) {
          ASSERT_EQ(static_cast<bool>(got[i]), i % 2 == 0)
              << "stable key " << keys[i] << " misread in round " << rounds;
        }
        ++rounds;
      }
      stop.store(true);
      for (auto& th : updaters) th.join();
      EXPECT_GT(rounds, 0u);
      EXPECT_EQ(drained_outstanding(c), 0u) << "drain-to-zero after churn";
    }
    Epoch::drain_all_for_testing();
    EXPECT_EQ(Epoch::outstanding(), 0u);
  }
}

// The hashmap's interleaved lanes route through a LIVE bucket migration:
// a writer drives several resizes while stable keys are multi_got — the
// per-lane kMoved/kDone handling must answer through old and new tables.
TEST(HashMapMultiGet, SurvivesConcurrentResize) {
  constexpr std::size_t kStable = 64;
  LlxScxHashMap m(1);  // 1 bucket: growth guaranteed
  for (std::uint64_t k = 1; k <= kStable; k += 2) m.upsert(k, k);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t k = 100'000; k < 140'000; ++k) m.upsert(k, k);
    done.store(true);
  });

  std::vector<std::uint64_t> keys(kStable);
  for (std::size_t i = 0; i < kStable; ++i) keys[i] = i + 1;
  std::vector<char> got(kStable);
  std::uint64_t rounds = 0;
  while (!done.load(std::memory_order_relaxed)) {
    m.multi_get(keys.data(), kStable, reinterpret_cast<bool*>(got.data()));
    for (std::size_t i = 0; i < kStable; ++i) {
      ASSERT_EQ(static_cast<bool>(got[i]), keys[i] % 2 == 1)
          << "key " << keys[i] << " in round " << rounds;
    }
    ++rounds;
  }
  writer.join();
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(m.size(), kStable / 2 + 40'000);
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// multi_get costs the same shared steps as the scalar loop — interleaving
// reorders the misses, it must not add or remove reads (the pinned 0-CAS
// Proposition 2 shape). The hash map is checked twice: quiescent, and
// frozen mid-migration so the lanes take the kMoved/kDone routing.
TEST(MultiGetShape, SameStepsAsScalarGets) {
  if constexpr (!kStepCounting) {
    GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  } else {
    LlxScxChromatic tree;
    LlxScxHashMap map;
    for (std::uint64_t k = 1; k <= 512; ++k) {
      tree.insert(k, k);
      map.insert(k, k);
    }
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 600; k += 3) keys.push_back(k);
    const auto check = [](const auto& c,
                          const std::vector<std::uint64_t>& keys,
                          const char* name) {
      std::vector<char> got(keys.size());
      const StepCounts batched = steps_of([&] {
        c.multi_get(keys.data(), keys.size(),
                    reinterpret_cast<bool*>(got.data()));
      });
      const StepCounts scalar = steps_of([&] {
        for (const std::uint64_t k : keys) c.contains(k);
      });
      EXPECT_EQ(batched.shared_reads, scalar.shared_reads) << name;
      EXPECT_EQ(batched.llx_calls, scalar.llx_calls) << name;
      EXPECT_EQ(batched.cas, 0u) << name << ": reads stay 0-CAS";
      EXPECT_EQ(batched.shared_writes, 0u) << name;
      EXPECT_EQ(batched.allocations, 0u) << name;
    };
    check(tree, keys, "chromatic");
    check(map, keys, "hashmap");

    // The first insert that runs more than one SCX started a growth and
    // migrated one stride; readers never help, so the table stays
    // mid-migration and every key of a moved bucket routes to the next.
    LlxScxHashMap mid(64);
    std::uint64_t last = 0;
    for (bool grew = false; !grew;) {
      ++last;
      grew = steps_of([&] { mid.insert(last, last); }).scx_calls > 1;
    }
    ASSERT_EQ(mid.bucket_count(), 64u) << "the migration must be in flight";
    std::vector<std::uint64_t> all;
    for (std::uint64_t k = 1; k <= last + 200; ++k) all.push_back(k);
    check(mid, all, "hashmap mid-migration");
  }
}

// --- EbrManager size classes and the bank cap ------------------------------

// The classes are glibc malloc's chunk sizes: a request of n bytes gets a
// chunk of max(32, round_up(n + 8, 16)) bytes with 8 bytes of header, so
// class c's 16c + 24 bytes are exactly the usable bytes of the chunk that
// `new` gives every size mapped to c — banking never grows a node's chunk.
TEST(EbrManagerSizeClasses, MappingIsMallocChunkSizes) {
  static_assert(EbrManager::size_class_of(1) == 0);
  static_assert(EbrManager::size_class_of(24) == 0);
  static_assert(EbrManager::size_class_of(25) == 1);
  static_assert(EbrManager::size_class_of(40) == 1);
  static_assert(EbrManager::size_class_of(56) == 2);
  static_assert(EbrManager::size_class_of(264) == 15);
  static_assert(EbrManager::size_class_of(265) == EbrManager::kNoSizeClass);
  static_assert(EbrManager::size_class_bytes(0) == 24);
  static_assert(EbrManager::size_class_bytes(2) == 56);
  static_assert(EbrManager::size_class_bytes(15) == 264);
  // Every node type is 40 B and shares the 40-byte class (48-byte chunks).
  static_assert(sizeof(ChromaticNode) == 40);
  static_assert(sizeof(BstNode) == 40);
  static_assert(sizeof(PatriciaNode) == 40);
  static_assert(sizeof(ListNode) == 40);
  static_assert(EbrManager::size_class_of(sizeof(ChromaticNode)) == 1);
  static_assert(EbrManager::size_class_of(sizeof(BstNode)) == 1);
  static_assert(EbrManager::size_class_of(sizeof(PatriciaNode)) == 1);
  static_assert(EbrManager::size_class_of(sizeof(ListNode)) == 1);
  for (std::size_t bytes = 1; bytes <= 264; ++bytes) {
    const std::size_t cls = EbrManager::size_class_of(bytes);
    ASSERT_LT(cls, EbrManager::kNumSizeClasses);
    const std::size_t chunk =
        std::max<std::size_t>(32, (bytes + 8 + 15) & ~std::size_t{15});
    ASSERT_EQ(EbrManager::size_class_bytes(cls), chunk - 8) << bytes;
  }
}

TEST(EbrManagerSizeClasses, ReuseByAddressEqualityPerClass) {
  struct A32 {
    char b[32];
  };
  struct B40 {
    char b[40];
  };
  struct C48 {
    char b[48];
  };
  constexpr std::size_t kAB = EbrManager::size_class_of(sizeof(A32));
  constexpr std::size_t kC = EbrManager::size_class_of(sizeof(C48));
  static_assert(kAB == EbrManager::size_class_of(sizeof(B40)));
  static_assert(kC != kAB);
  EbrManager::drain();
  EbrManager::purge_thread_cache();

  A32* a = EbrManager::alloc<A32>();
  const void* addr = a;
  EbrManager::dealloc(a);
  EXPECT_EQ(EbrManager::free_blocks(kAB), 1u);
  // Same class, DIFFERENT type: the banked block comes straight back.
  B40* b = EbrManager::alloc<B40>();
  EXPECT_EQ(static_cast<const void*>(b), addr)
      << "same-class alloc must reuse the banked block";
  // Different class: must NOT alias the banked block.
  EbrManager::dealloc(b);
  C48* c = EbrManager::alloc<C48>();
  EXPECT_NE(static_cast<const void*>(c), addr)
      << "cross-class reuse would hand out an undersized block";
  EbrManager::dealloc(c);
  EXPECT_EQ(EbrManager::free_blocks(kAB), 1u);
  EXPECT_EQ(EbrManager::free_blocks(kC), 1u);
  EbrManager::purge_thread_cache();
}

// A thread that only retires cannot hoard: past kBankCap blocks per class,
// grace-expired storage goes back to operator delete.
TEST(EbrManagerSizeClasses, BankHoldsAtMostTheCap) {
  struct Rec {
    char b[56];
  };
  constexpr std::size_t kCls = EbrManager::size_class_of(sizeof(Rec));
  EbrManager::drain();
  EbrManager::purge_thread_cache();
  const std::uint64_t outstanding0 = Epoch::outstanding();
  std::vector<Rec*> recs(10 * EbrManager::kBankCap);
  for (Rec*& r : recs) r = EbrManager::alloc<Rec>();
  for (Rec* r : recs) EbrManager::retire(r);
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), outstanding0);
  EXPECT_EQ(EbrManager::free_blocks(kCls), EbrManager::kBankCap);
  EbrManager::purge_thread_cache();
  EXPECT_EQ(EbrManager::free_blocks(kCls), 0u);
}

}  // namespace
}  // namespace llxscx
