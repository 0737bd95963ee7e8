// RecordManager — the reclamation policy layer (DESIGN.md §10).
//
// The paper's primitives are agnostic about how retired Data-records are
// reclaimed ("in other languages, such as C++, memory management is an
// issue", §6). The seed hard-wired epoch reclamation into the primitives
// and every structure; this header separates MECHANISM (reclaim/epoch.h:
// guards, limbo lists, grace periods) from POLICY (what alloc/retire/free
// actually do), so structures are written once against the policy concept
// and reclamation experiments swap a template parameter.
//
// A RecordManager provides:
//
//   M::alloc<T>(args…)  construct a T (policy decides where the bytes
//                       come from).
//   M::retire(T*)       hand over a node, allocated by M::alloc, that the
//                       caller just made unreachable from the structure's
//                       roots. Exactly-once is the caller's obligation
//                       (the ScxOp builder provides it); WHEN (and
//                       whether) the destructor runs is the policy's.
//   M::dealloc(T*)      destroy a node that was NEVER published (an
//                       aborted op's fresh allocation, or quiescent
//                       teardown): no grace period needed.
//   M::drain()          test/teardown: reclaim everything reclaimable.
//   M::stats()          this thread's ReclaimStats (plain thread-local
//                       counters — no shared steps, so policy accounting
//                       never perturbs the pinned SCX step shapes).
//
// There is no policy guard: every structure takes an Epoch::Guard, and
// the policies differ only in what retire() does — even the leaky one's
// readers pin the epoch, so the E8 and layer-ladder comparisons price the
// frees alone. A guard pins the epoch for EVERY thread's limbo, so
// long-running walks (a whole-table size() or occupancy scan) must
// re-enter a fresh guard per segment rather than hold one across the
// walk — otherwise one reader stalls all reclamation (pinned by
// test_record_manager's walk-does-not-block-drain case). Limbo accounting
// lives in the epoch domain too (Epoch::outstanding(), Epoch::Domain): it
// counts every node the ebr policy retired and not yet freed.
//
// The contract a policy must honor for the LLX/SCX proofs to survive is
// written out in DESIGN.md §10; the short form: an address handed to
// retire() must not be handed out by alloc() again while any thread that
// could still reach the old node holds an Epoch::Guard taken before the
// retire. EbrManager gets this from the epoch grace period; LeakyManager
// gets it vacuously (retired addresses never recur).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "reclaim/epoch.h"

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer's poisoning entry points, as <sanitizer/asan_interface.h>
// declares them. Not that header: under GCC it defines __has_feature(x) as
// 0 for every later includer, which hides ASan from their feature tests.
extern "C" void __asan_poison_memory_region(void const volatile* addr,
                                            std::size_t size);
extern "C" void __asan_unpoison_memory_region(void const volatile* addr,
                                              std::size_t size);
#endif

namespace llxscx {

// Per-thread policy counters (always on: thread-local increments cost
// nothing shared and the block-reuse tests read them in every build mode).
struct ReclaimStats {
  std::uint64_t allocs = 0;     // nodes constructed through the policy
  std::uint64_t pool_hits = 0;  // allocs served from a per-thread free list
  std::uint64_t retires = 0;    // nodes handed to retire()
  std::uint64_t deallocs = 0;   // unpublished nodes freed via dealloc()
  std::uint64_t leaked = 0;     // retires dropped on the floor (LeakyManager)

  ReclaimStats& operator+=(const ReclaimStats& o) {
    allocs += o.allocs;
    pool_hits += o.pool_hits;
    retires += o.retires;
    deallocs += o.deallocs;
    leaked += o.leaked;
    return *this;
  }
  ReclaimStats operator-(const ReclaimStats& o) const {
    ReclaimStats r = *this;
    r.allocs -= o.allocs;
    r.pool_hits -= o.pool_hits;
    r.retires -= o.retires;
    r.deallocs -= o.deallocs;
    r.leaked -= o.leaked;
    return r;
  }
};

// One epoch domain's reclamation accounting, as ShardedMap::for_each_shard
// reports it per shard. `outstanding` counts retired-not-yet-freed
// records across every thread registered in the domain; `freed` is the
// domain's lifetime free count. Relaxed reads — exact only when the
// domain is quiescent, same contract as container size().
struct DomainReclaimStats {
  std::uint64_t outstanding = 0;
  std::uint64_t freed = 0;
};

// The compile-time face of the contract. alloc/retire/dealloc are member
// templates, so the concept probes them with a concrete stand-in type.
template <class M>
concept RecordManager = requires(int* p) {
  { M::kName } -> std::convertible_to<const char*>;
  { M::template alloc<int>(0) } -> std::same_as<int*>;
  { M::template retire<int>(p) };
  { M::template dealloc<int>(p) };
  { M::drain() };
  { M::stats() } -> std::same_as<ReclaimStats&>;
};

// --- EbrManager: the default — epoch grace, then per-thread recycling ---
//
// Retired nodes wait out the epoch grace period (address stability is
// what the LLX/SCX proofs consume). When it elapses, the deleter — run by
// the SCANNING thread — destroys the node and banks its block in that
// thread's free list for its size class; alloc() pops a banked block
// before it calls operator new, and dealloc() banks too (an unpublished
// node owes no grace period). Warm node churn then calls no malloc/free.
// A block reaches a bank only after the grace period that would have
// preceded its free, so the reuse is exactly as safe as delete-then-malloc.
//
// The classes are glibc malloc's chunk sizes (DESIGN.md §10): class c
// holds blocks of 16c + 24 usable bytes (24, 40, 56, …, 264), so a block
// keeps the chunk `new` would have given its type, and any type of a
// class reuses any other's block. Larger types bypass the banks. Each
// list holds at most kBankCap blocks, so a thread that only retires
// cannot hoard. Under AddressSanitizer a banked block stays poisoned until
// alloc() hands it out, so a read of a drained record still reports.
struct EbrManager {
  static constexpr const char* kName = "ebr";

  static constexpr std::size_t kNumSizeClasses = 16;
  static constexpr std::size_t kNoSizeClass = ~std::size_t{0};
  static constexpr std::size_t kBankCap = 1024;

  static constexpr std::size_t size_class_of(std::size_t bytes) {
    const std::size_t cls = bytes <= 24 ? 0 : (bytes - 24 + 15) / 16;
    return cls < kNumSizeClasses ? cls : kNoSizeClass;
  }
  static constexpr std::size_t size_class_bytes(std::size_t cls) {
    return 16 * cls + 24;
  }

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    ++stats().allocs;
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    if constexpr (kCls == kNoSizeClass) {
      return new T(std::forward<Args>(args)...);
    } else {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                    "banked blocks use default operator new alignment");
      std::vector<void*>& fl = free_lists().cls[kCls];
      void* block;
      if (!fl.empty()) {
        block = fl.back();
        fl.pop_back();
        poison(block, size_class_bytes(kCls), false);
        ++stats().pool_hits;
      } else {
        block = ::operator new(size_class_bytes(kCls));
      }
      return ::new (block) T(std::forward<Args>(args)...);
    }
  }

  template <class T>
  static void retire(T* p) {
    ++stats().retires;
    Epoch::retire_raw(p, [](void* q) { destroy(static_cast<T*>(q)); });
  }

  template <class T>
  static void dealloc(T* p) {
    ++stats().deallocs;
    destroy(p);
  }

  static void drain() { Epoch::drain_all_for_testing(); }

  static ReclaimStats& stats() {
    thread_local ReclaimStats s;
    return s;
  }

  // Blocks banked in this thread's list for `cls` (test visibility).
  static std::size_t free_blocks(std::size_t cls) {
    return cls < kNumSizeClasses ? free_lists().cls[cls].size() : 0;
  }

  // Return every banked block on THIS thread to the allocator. Tests that
  // pin pool_hits deltas call this first so blocks left over from earlier
  // tests in the same size class cannot satisfy (and miscount) an alloc.
  static void purge_thread_cache() { free_lists().purge(); }

 private:
  template <class T>
  static void destroy(T* p) {
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    if constexpr (kCls == kNoSizeClass) {
      delete p;
    } else {
      p->~T();
      std::vector<void*>& fl = free_lists().cls[kCls];
      if (fl.size() >= kBankCap) {
        ::operator delete(p);
        return;
      }
      if (fl.capacity() == 0) fl.reserve(kBankCap);  // never regrows
      poison(p, size_class_bytes(kCls), true);
      fl.push_back(p);
    }
  }

  static void poison([[maybe_unused]] void* b, [[maybe_unused]] std::size_t n,
                     [[maybe_unused]] bool on) {
#if defined(__SANITIZE_ADDRESS__)
    (on ? __asan_poison_memory_region : __asan_unpoison_memory_region)(b, n);
#endif
  }

  // Raw blocks of size_class_bytes(c) in cls[c]; freed for real at thread
  // exit so the banks never show up as a leak.
  struct FreeLists {
    std::vector<void*> cls[kNumSizeClasses];
    void purge() {
      for (std::size_t c = 0; c < kNumSizeClasses; ++c) {
        for (void* b : cls[c]) {
          poison(b, size_class_bytes(c), false);
          ::operator delete(b);
        }
        cls[c].clear();
      }
    }
    ~FreeLists() { purge(); }
  };

  static FreeLists& free_lists() {
    thread_local FreeLists fl;
    return fl;
  }
};

// The frozen serving benchmark still names this policy.
using PoolManager = EbrManager;

// --- LeakyManager: the no-free baseline (E8's ablation) -----------------
//
// retire() drops the node on the floor, so a long-running process grows
// without bound — the point of the ablation is to measure what that buys.
// The §3 usage assumption (a retired address never re-enters a mutable
// field) holds trivially: leaked addresses are never recycled.
struct LeakyManager {
  static constexpr const char* kName = "leaky";

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    ++stats().allocs;
    return new T(std::forward<Args>(args)...);
  }

  template <class T>
  static void retire(T*) {
    ++stats().retires;
    ++stats().leaked;  // deliberately never freed
  }

  template <class T>
  static void dealloc(T* p) {
    // Never published, so the leak rationale does not apply: free it.
    ++stats().deallocs;
    delete p;
  }

  static void drain() { Epoch::drain_all_for_testing(); }

  static ReclaimStats& stats() {
    thread_local ReclaimStats s;
    return s;
  }
};

static_assert(RecordManager<EbrManager>);
static_assert(RecordManager<LeakyManager>);

}  // namespace llxscx
