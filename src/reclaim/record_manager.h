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
//   M::retire(T*)       hand over a node the caller just made unreachable
//                       from the structure's roots. Exactly-once is the
//                       caller's obligation (the ScxOp builder provides
//                       it); WHEN (and whether) the destructor runs is the
//                       policy's.
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
// counts every node the ebr and pool policies retired and not yet freed.
//
// The contract a policy must honor for the LLX/SCX proofs to survive is
// written out in DESIGN.md §10; the short form: an address handed to
// retire() must not be handed out by alloc() again while any thread that
// could still reach the old node holds an Epoch::Guard taken before the
// retire. EbrManager and PoolManager get this from the epoch grace
// period; LeakyManager gets it vacuously (retired addresses never recur).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "reclaim/epoch.h"

namespace llxscx {

// Per-thread policy counters (always on: thread-local increments cost
// nothing shared and the pool-reuse tests read them in every build mode).
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

// --- EbrManager: the default — plain new/delete under epoch grace -------
//
// Exactly the seed behavior, factored behind the concept: retire defers
// the delete until every guard that could reach the node has dropped.
struct EbrManager {
  static constexpr const char* kName = "ebr";

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    ++stats().allocs;
    return new T(std::forward<Args>(args)...);
  }

  template <class T>
  static void retire(T* p) {
    ++stats().retires;
    Epoch::retire(p);
  }

  template <class T>
  static void dealloc(T* p) {
    ++stats().deallocs;
    delete p;
  }

  static void drain() { Epoch::drain_all_for_testing(); }

  static ReclaimStats& stats() {
    thread_local ReclaimStats s;
    return s;
  }
};

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

// --- PoolManager: size-classed per-thread free lists on top of EBR ------
//
// The throughput candidate: retired nodes still wait out the epoch grace
// period (address stability is what the LLX/SCX proofs consume), but when
// the grace period elapses the storage goes to a per-thread free list
// instead of the allocator, and alloc() placement-news into a recycled
// block when one is available. Node churn (every SCX replaces nodes by
// design) then stops paying malloc/free on the steady state.
//
// Lists are keyed by SIZE CLASS, not by type (DESIGN.md §14): 16-byte
// steps up to 256 bytes, which covers every node type in ds/. A block
// allocated for any type in a class can be reused by any other type in
// that class — BST internal nodes recycle into Patricia leaves — so
// mixed-structure churn shares one pool instead of fragmenting across
// per-type lists. Larger types fall back to plain new/delete (still
// grace-deferred).
//
// The reuse is exactly as safe as delete-then-malloc reuse: a block only
// reaches the pool after the same grace period that would have preceded
// its free, so an address can re-enter a mutable field no earlier than it
// could under EbrManager.
struct PoolManager {
  static constexpr const char* kName = "pool";

  // 16-byte-granularity classes 0..15 cover 16..256 bytes. Returns
  // kNoSizeClass above that.
  static constexpr std::size_t kNumSizeClasses = 16;
  static constexpr std::size_t kNoSizeClass = ~std::size_t{0};

  static constexpr std::size_t size_class_of(std::size_t bytes) {
    if (bytes == 0) return 0;
    if (bytes <= 256) return (bytes + 15) / 16 - 1;
    return kNoSizeClass;
  }
  static constexpr std::size_t size_class_bytes(std::size_t cls) {
    return (cls + 1) * 16;
  }

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pooled blocks use default operator new alignment");
    ++stats().allocs;
    void* block;
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    if constexpr (kCls == kNoSizeClass) {
      block = ::operator new(sizeof(T));
    } else {
      std::vector<void*>& fl = free_lists().cls[kCls];
      if (!fl.empty()) {
        block = fl.back();
        fl.pop_back();
        ++stats().pool_hits;
      } else {
        block = ::operator new(size_class_bytes(kCls));
      }
    }
    return ::new (block) T(std::forward<Args>(args)...);
  }

  template <class T>
  static void retire(T* p) {
    ++stats().retires;
    // Grace first, pool after: the deleter runs on the SCANNING thread
    // once no pre-retire guard survives, destroys the node, and banks the
    // storage in that thread's class list (per-thread lists, so no lock).
    Epoch::retire_raw(p, [](void* q) {
      T* t = static_cast<T*>(q);
      t->~T();
      bank<T>(q);
    });
  }

  template <class T>
  static void dealloc(T* p) {
    // Never published: no grace period owed; recycle immediately.
    ++stats().deallocs;
    p->~T();
    bank<T>(p);
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
  static void purge_thread_cache() {
    for (std::vector<void*>& fl : free_lists().cls) {
      for (void* b : fl) ::operator delete(b);
      fl.clear();
    }
  }

 private:
  template <class T>
  static void bank(void* q) {
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    if constexpr (kCls == kNoSizeClass) {
      ::operator delete(q);
    } else {
      free_lists().cls[kCls].push_back(q);
    }
  }

  // Raw storage blocks of size_class_bytes(cls); freed for real at thread
  // exit so the pool never shows up as a leak.
  struct FreeLists {
    std::vector<void*> cls[kNumSizeClasses];
    ~FreeLists() {
      for (std::vector<void*>& fl : cls)
        for (void* b : fl) ::operator delete(b);
    }
  };

  static FreeLists& free_lists() {
    thread_local FreeLists fl;
    return fl;
  }
};

static_assert(RecordManager<EbrManager>);
static_assert(RecordManager<LeakyManager>);
static_assert(RecordManager<PoolManager>);

}  // namespace llxscx
