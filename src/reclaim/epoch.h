// Epoch-based reclamation (DESIGN.md §2), now multi-domain (§12).
//
// The paper's implementation leans on a garbage collector ("in other
// languages, such as C++, memory management is an issue" — §6). This repo
// substitutes classic EBR: threads pin the global epoch while they may hold
// references into a structure; removed Data-records go onto per-thread
// limbo lists stamped with the epoch at retirement, and a node is freed
// once every pinned thread holds a reservation strictly newer than that
// stamp. The policy that frees (EbrManager, whose deleter banks the block
// for reuse) retires through that one path, so a retired node is on a
// limbo list from the moment retire returns: outstanding() counts it and
// a drain frees it, whether the retiring thread is live or gone.
//
// Guards are reentrant (the multiset takes one per operation, and benches
// often hold an outer one around a batch); only the outermost guard
// publishes or clears the reservation.
//
// Thread records are pooled and reused: the bench harness spawns fresh
// worker threads per phase, so a thread's record (and any limbo nodes it
// leaves behind) is adopted by a later thread instead of leaking.
//
// DOMAINS. Epoch state (the global counter, the thread registry, the limbo
// accounting) is no longer a process singleton: it is an instantiable
// `Epoch::Domain`, and every static verb below (Guard, retire,
// drain_all_for_testing, outstanding, …) operates on the thread's CURRENT
// domain — the process-wide default unless an `Epoch::DomainScope` is on
// the stack. This is what lets the sharded front-end (DESIGN.md §12) give
// each shard its own epoch: a stalled reader pins only its own shard's
// limbo, and the other shards keep draining. The pre-domain API is the
// default domain's behavior, unchanged — existing structures and tests
// compile and run identically.
//
// Domain rules:
//   1. A Guard resolves its domain ONCE, at construction. Scope changes
//      between a guard's construction and destruction do not retarget it —
//      it keeps pinning (and later releases) the domain it was born in.
//   2. Records retired under a domain are freed by scans of that domain.
//      Helping keeps this coherent without any cross-domain machinery:
//      an SCX only ever freezes records of the structure instance it
//      operates on, so helpers encounter a shard's records strictly while
//      running under that shard's scope.
//   3. Domain states are pooled and leaked, never deleted: threads cache a
//      per-domain handle, and worker threads' handle destructors may run
//      during process teardown. Destroying a Domain drains it and returns
//      its state to the pool for the next Domain; destroy it only after
//      all guards taken under it are gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace llxscx {

class Epoch {
  struct State;   // forward: nested classes below hold State*
  struct Handle;  // forward: Guard stores its resolved Handle*

 public:
  // RAII reservation pinning the current domain's epoch for this thread.
  //
  // Guarantee: any pointer loaded from shared memory while a guard is
  // held stays allocated (possibly logically removed, never freed) until
  // this thread's OUTERMOST guard drops — provided the pointed-to object
  // was reachable at the load, i.e. retired no earlier than the guard's
  // start. Pointers cached from before the guard began get no protection.
  //
  // Reentrancy: guards nest freely on one thread (each structure op takes
  // one; benches often hold an outer guard around a batch). Only the
  // outermost guard publishes the reservation and only its destruction
  // clears it, so the protected window is the union of the nest. A guard
  // is thread-local state: it must be destroyed on the thread that
  // created it, and holding one does NOT protect other threads' new
  // retirements from being your own next guard's problem — it only
  // delays frees.
  //
  // The guard binds to the domain current AT CONSTRUCTION (rule 1 above):
  // nesting is per (thread, domain), so guards of different domains
  // interleave freely on one thread without corrupting each other's
  // depth. Destroy it on any scope — it remembers its handle.
  //
  // Do not hold a guard across blocking waits in retire-heavy phases:
  // every pinned thread bounds how far ITS domain's limbo lists can
  // drain (other domains are unaffected — that independence is pinned by
  // test_sharded_map).
  class Guard {
   public:
    Guard() : h_(&handle()) {
      if (h_->depth++ == 0) {
        h_->rec->reservation.store(
            h_->st->global.load(std::memory_order_seq_cst),
            std::memory_order_seq_cst);
        // Deliberately seq_cst and NOT behind LLXSCX_RELAXED_ORDERS: the
        // reservation publication needs a StoreLoad edge against the
        // scanner's reservation read, and the structure traversals this
        // guard protects use acquire loads — a seq_cst STORE alone does
        // not order a later plain acquire load after it (on RCpc
        // hardware, e.g. AArch64 LDAPR, the load can be satisfied before
        // the store is visible, letting the scanner miss the reservation
        // and free what the traversal reads). The full fence is what
        // pins every subsequent load after the publication.
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
    ~Guard() {
      if (--h_->depth == 0) {
        h_->rec->reservation.store(kIdle, std::memory_order_seq_cst);
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Handle* h_;  // resolved once; see rule 1
  };

  // An independent reclamation domain: its own epoch counter, thread
  // registry, limbo accounting. States are pooled (never deleted — rule
  // 3), so constructing a Domain is cheap after the first few. The
  // destructor drains whatever it can and returns the state; any limbo
  // still pinned by a live guard (a contract violation) survives in the
  // pooled state and is drained by its next owner.
  class Domain {
   public:
    Domain() : st_(acquire_state()) {}
    ~Domain() {
      drain_state(*st_);
      release_state(st_);
    }
    Domain(const Domain&) = delete;
    Domain& operator=(const Domain&) = delete;

    // Reclaim everything whose grace period has elapsed (same teardown
    // caveats as drain_all_for_testing, scoped to this domain).
    void drain() const { drain_state(*st_); }

    std::uint64_t outstanding() const {
      return st_->outstanding.load(std::memory_order_relaxed);
    }
    std::uint64_t total_freed() const {
      return st_->total_freed.load(std::memory_order_relaxed);
    }

   private:
    friend class Epoch;
    State* st_;
  };

  // Makes `d` the thread's current domain for this scope: every Guard
  // constructed, record retired, or stat read through the static API
  // inside the scope targets `d`. Scopes nest (save/restore); they are
  // thread-local and must unwind on the thread that created them. The
  // referenced Domain must outlive the scope.
  class DomainScope {
   public:
    explicit DomainScope(const Domain& d) : prev_(tls_state()) {
      tls_state() = d.st_;
    }
    ~DomainScope() { tls_state() = prev_; }
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    State* prev_;
  };

  // Hand p to the current domain's reclaimer; it is deleted (as T) once
  // every thread pinned at or before the domain's current epoch has
  // unpinned. Preconditions: p is unreachable from the structure's roots
  // (no NEW guard can find it), and exactly one thread retires it, exactly
  // once. The caller may still hold a guard — retirement is about future
  // readers, not the current one. Deleters must not retire.
  template <typename T>
  static void retire(T* p) {
    retire_raw(p, [](void* q) { delete static_cast<T*>(q); });
  }

  // retire() with the deleter spelled out (EbrManager's banks the storage
  // instead of freeing it). Same preconditions as retire().
  static void retire_raw(void* p, void (*del)(void*)) {
    Handle& h = handle();
    State& s = *h.st;
    const std::uint64_t e = s.global.load(std::memory_order_seq_cst);
    {
      SpinLock lock(h.rec->mu);
      h.rec->limbo.push_back({p, del, e});
    }
    s.outstanding.fetch_add(1, std::memory_order_relaxed);
    if (++h.retires_since_scan >= kScanPeriod) {
      h.retires_since_scan = 0;
      s.global.fetch_add(1, std::memory_order_seq_cst);
      scan_one(s, h.rec);
    }
  }

  // Free every node in the current domain whose grace period has elapsed,
  // advancing the epoch first. With no live guards on the domain this
  // empties all its limbo lists. Test/bench teardown only: it walks every
  // thread record, so it must not race with concurrent retire-heavy work
  // on the same domain.
  static void drain_all_for_testing() { drain_state(current_state()); }

  static std::uint64_t total_freed() {
    return current_state().total_freed.load(std::memory_order_relaxed);
  }
  static std::uint64_t outstanding() {
    return current_state().outstanding.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  static constexpr int kScanPeriod = 64;

  struct Retired {
    void* p;
    void (*del)(void*);
    std::uint64_t epoch;
  };

  struct alignas(64) ThreadRec {
    std::atomic<std::uint64_t> reservation{kIdle};
    std::atomic_flag mu = ATOMIC_FLAG_INIT;
    std::vector<Retired> limbo;  // guarded by mu
  };

  class SpinLock {
   public:
    explicit SpinLock(std::atomic_flag& f) : f_(f) {
      while (f_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinLock() { f_.clear(std::memory_order_release); }

   private:
    std::atomic_flag& f_;
  };

  struct State {
    std::atomic<std::uint64_t> global{1};
    std::atomic<std::uint64_t> total_freed{0};
    std::atomic<std::uint64_t> outstanding{0};
    std::mutex registry_mu;
    std::vector<ThreadRec*> recs;       // all ever created; never deallocated
    std::vector<ThreadRec*> free_recs;  // records whose owner thread exited
  };

  // One per (thread, domain): the thread's rec in that domain's registry
  // plus its guard depth and retire cadence there. Cached in a small
  // thread-local table so repeated scope switches don't re-register.
  // Padded to its own line: every guard writes `depth` twice, and a
  // recycled node block beside it would be a record other threads read
  // (unpadded, 2-thread point-read trials ran up to ~45 % slower).
  struct alignas(64) Handle {
    State* st;
    ThreadRec* rec = nullptr;
    int depth = 0;
    int retires_since_scan = 0;

    explicit Handle(State* s) : st(s) {
      std::lock_guard<std::mutex> lock(st->registry_mu);
      if (!st->free_recs.empty()) {
        rec = st->free_recs.back();
        st->free_recs.pop_back();
      } else {
        rec = new ThreadRec;
        st->recs.push_back(rec);
      }
    }
    ~Handle() {
      rec->reservation.store(kIdle, std::memory_order_seq_cst);
      std::lock_guard<std::mutex> lock(st->registry_mu);
      st->free_recs.push_back(rec);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
  };

  // Leaked singletons: worker threads' Handle destructors may run during
  // process teardown, after static destruction would have torn these down.
  static State& default_state() {
    static State* s = new State;
    return *s;
  }

  struct StatePool {
    std::mutex mu;
    std::vector<State*> free_states;
  };
  static StatePool& state_pool() {
    static StatePool* p = new StatePool;
    return *p;
  }

  static State* acquire_state() {
    StatePool& pool = state_pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.free_states.empty()) {
      State* s = pool.free_states.back();
      pool.free_states.pop_back();
      return s;
    }
    return new State;  // pooled forever (rule 3); stale handles stay valid
  }
  static void release_state(State* s) {
    StatePool& pool = state_pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.free_states.push_back(s);
  }

  static State*& tls_state() {
    thread_local State* cur = nullptr;
    return cur;
  }
  static State& current_state() {
    State* cur = tls_state();
    return cur ? *cur : default_state();
  }

  static Handle& handle() {
    // unique_ptr, not Handle by value: growth must not move live Handles
    // (outstanding Guards hold raw Handle*).
    struct Handles {
      std::vector<std::unique_ptr<Handle>> v;
      Handle* last = nullptr;  // single-entry cache: scope switches are rare
    };
    thread_local Handles hs;
    State* st = &current_state();
    if (hs.last != nullptr && hs.last->st == st) return *hs.last;
    for (const auto& h : hs.v) {
      if (h->st == st) {
        hs.last = h.get();
        return *hs.last;
      }
    }
    hs.v.push_back(std::make_unique<Handle>(st));
    hs.last = hs.v.back().get();
    return *hs.last;
  }

  static std::vector<ThreadRec*> all_recs(State& s) {
    std::lock_guard<std::mutex> lock(s.registry_mu);
    return s.recs;
  }

  // Reads the reservations in place, under registry_mu: unlike drain's
  // all_recs() copy, a scan allocates nothing.
  static std::uint64_t min_reservation(State& s) {
    std::lock_guard<std::mutex> lock(s.registry_mu);
    std::uint64_t m = kIdle;
    for (ThreadRec* rec : s.recs) {
      const std::uint64_t r = rec->reservation.load(std::memory_order_seq_cst);
      if (r < m) m = r;
    }
    return m;
  }

  static void drain_state(State& s) {
    s.global.fetch_add(1, std::memory_order_seq_cst);
    for (ThreadRec* rec : all_recs(s)) scan_one(s, rec);
  }

  // Moves `rec`'s expired nodes out under its lock into the scanning
  // thread's reused buffer, then frees them with no lock held.
  static void scan_one(State& s, ThreadRec* rec) {
    const std::uint64_t min_res = min_reservation(s);
    thread_local std::vector<Retired> expired;
    expired.clear();
    {
      SpinLock lock(rec->mu);
      auto split = rec->limbo.begin();
      for (auto it = rec->limbo.begin(); it != rec->limbo.end(); ++it) {
        if (it->epoch < min_res) {
          expired.push_back(*it);
        } else {
          *split++ = *it;
        }
      }
      rec->limbo.erase(split, rec->limbo.end());
    }
    for (const Retired& r : expired) r.del(r.p);
    s.outstanding.fetch_sub(expired.size(), std::memory_order_relaxed);
    s.total_freed.fetch_add(expired.size(), std::memory_order_relaxed);
  }
};

}  // namespace llxscx
