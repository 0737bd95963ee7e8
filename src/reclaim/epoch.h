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
//   3. Domain states are pooled and leaked, never deleted: each state
//      takes a dense index at construction, threads keep their per-domain
//      handles in a table indexed by it, and worker threads' handle
//      destructors may run during process teardown. Destroying a Domain
//      drains it and returns its state (index and all) to the pool for the
//      next Domain; destroy it only after all guards taken under it are
//      gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace llxscx {

// One domain's reclamation counts, as Epoch::Domain and
// ShardedMap::for_each_shard report them. `outstanding` counts records
// retired in the domain that no scan has yet taken off a limbo list;
// `freed` is the domain's lifetime count of records its scans took. Both
// are summed over the domain's thread records by one cold walk
// (Epoch::counts), so nothing on the guard, retire or scan path writes a
// domain-wide counter. Exact only when the domain is quiescent, same
// contract as container size().
struct DomainReclaimStats {
  std::uint64_t outstanding = 0;
  std::uint64_t freed = 0;
};

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
  //
  // Cost: one indexed thread-local lookup and, for the outermost guard, one
  // locked instruction (the entry fence). The constructor, destructor and
  // lookup are always_inline, so no call site's inlining depends on how
  // much of the compiler's unit-growth budget the rest of its translation
  // unit used up.
  class Guard {
   public:
    // Ordering (DESIGN.md §2; C++20 [atomics.order]/4, S the single total
    // order of seq_cst operations). The reservation store is not seq_cst;
    // the fence F after it is what orders it. Let L be a load under this
    // guard, U the update that unlinked some node n, and F_W the fence
    // retire_raw runs after U (U happens before F_W) and before its
    // seq_cst load stamps n with epoch e. A scan frees n only after its
    // seq_cst load M of this reservation returned kIdle or a value > e:
    //   - M read a value older than our store: by (4.2) M precedes F in S,
    //     and F_W precedes M (the scanned retire happened before the
    //     scan), so F_W precedes F;
    //   - M read our value g > e: the stamp's load of `global` read an
    //     older value than ours, so by (4.1) it precedes ours in S, and
    //     again F_W precedes F.
    // Had L read n's link before U, (4.4) would put F before F_W; so L
    // sees the unlink. Both the fence and F_W are needed: under relaxed
    // orders U is only a release CAS, outside S. The store is release so
    // that a scan which reads a LATER guard's reservation still
    // synchronizes with everything this guard read ([intro.races]: a
    // relaxed store would end the release sequence our exit store heads);
    // on x86 both compile to a plain mov. None of these orders follows
    // LLXSCX_RELAXED_ORDERS: each is already the weakest the argument
    // allows.
    [[gnu::always_inline]] Guard() : h_(&handle()) {
      if (h_->depth++ == 0) {
        h_->rec->reservation.store(
            h_->st->global.load(std::memory_order_seq_cst),
            std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
    // release: a scan whose seq_cst load reads kIdle synchronizes with
    // this store, so everything the guard read happens before what the
    // scan then frees.
    [[gnu::always_inline]] ~Guard() {
      if (--h_->depth == 0) {
        h_->rec->reservation.store(kIdle, std::memory_order_release);
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

    // Both counts from one walk, so they describe the same instant; the
    // one-field reads below each take a walk of their own.
    DomainReclaimStats counts() const { return Epoch::counts(*st_); }
    std::uint64_t outstanding() const { return counts().outstanding; }
    std::uint64_t total_freed() const { return counts().freed; }

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
    // F_W of Guard's ordering argument: the unlink happens before this
    // fence, and the fence precedes the stamp's load in S.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t e = s.global.load(std::memory_order_seq_cst);
    {
      SpinLock lock(h.rec->mu);
      h.rec->limbo.push_back({p, del, e});
    }
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

  static std::uint64_t total_freed() { return counts(current_state()).freed; }
  static std::uint64_t outstanding() {
    return counts(current_state()).outstanding;
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
    std::uint64_t freed = 0;     // taken off limbo by scans; guarded by mu
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

  static inline std::atomic<std::size_t> state_count{0};

  // One line for what every guard entry reads (`global`, and the `index`
  // every lookup reads) and one for what scans, registrations and the
  // counts walk lock (the registry), so scanning threads never take the
  // line every reader needs.
  struct State {
    alignas(64) std::atomic<std::uint64_t> global{1};
    // Dense and never reused: states are never deleted (rule 3).
    const std::size_t index =
        state_count.fetch_add(1, std::memory_order_relaxed);
    alignas(64) std::mutex registry_mu;
    std::vector<ThreadRec*> recs;       // all ever created; never deallocated
    std::vector<ThreadRec*> free_recs;  // records whose owner thread exited
  };

  // One per (thread, domain): the thread's rec in that domain's registry
  // plus its guard depth and retire cadence there. Kept in a thread-local
  // table indexed by State::index, so scope switches never re-register.
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
  [[gnu::always_inline]] static State& default_state() {
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

  [[gnu::always_inline]] static State*& tls_state() {
    thread_local State* cur = nullptr;
    return cur;
  }
  [[gnu::always_inline]] static State& current_state() {
    State* cur = tls_state();
    return cur ? *cur : default_state();
  }

  // The thread's handles by State::index. unique_ptr, not Handle by value:
  // growth must not move live Handles (outstanding Guards hold raw
  // Handle*).
  using HandleTable = std::vector<std::unique_ptr<Handle>>;

  [[gnu::always_inline]] static Handle& handle() {
    thread_local HandleTable hs;
    State& st = current_state();
    if (st.index < hs.size()) {
      if (Handle* h = hs[st.index].get()) [[likely]] return *h;
    }
    return register_handle(hs, st);
  }

  // The thread's first guard or retire in a domain: out of line, so the
  // hit path above stays small.
  [[gnu::noinline]] static Handle& register_handle(HandleTable& hs,
                                                   State& st) {
    if (hs.size() <= st.index) hs.resize(st.index + 1);
    hs[st.index] = std::make_unique<Handle>(&st);
    return *hs[st.index];
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
  // thread's reused buffer, counting them in `rec->freed`, then frees them
  // with no lock held. A limbo list is in retire order: its owners push
  // stamps of one state's monotonic `global`, one owner at a time, and
  // scans remove only a prefix. So the expired nodes are a prefix, and a
  // scan stops at the first node that has not expired. That keeps the
  // scans of one long guard linear: a hash-map table swap retires three
  // nodes per old bucket under its own reservation, none of which can
  // expire before it ends, and every 64th retire scans.
  static void scan_one(State& s, ThreadRec* rec) {
    const std::uint64_t min_res = min_reservation(s);
    thread_local std::vector<Retired> expired;
    expired.clear();
    {
      SpinLock lock(rec->mu);
      auto end = rec->limbo.begin();
      while (end != rec->limbo.end() && end->epoch < min_res) ++end;
      expired.assign(rec->limbo.begin(), end);
      rec->limbo.erase(rec->limbo.begin(), end);
      rec->freed += expired.size();
    }
    for (const Retired& r : expired) r.del(r.p);
  }

  // The counts walk: every thread record's limbo size and scan-freed
  // count, each read under the record's lock. Cold and out of line: only
  // quiescent reads call it, and where GCC 12 inlines it, it reports a
  // false -Wmaybe-uninitialized on a caller's std::optional<Guard>.
  [[gnu::cold, gnu::noinline]] static DomainReclaimStats counts(State& s) {
    DomainReclaimStats c;
    std::lock_guard<std::mutex> lock(s.registry_mu);
    for (ThreadRec* rec : s.recs) {
      SpinLock rec_lock(rec->mu);
      c.outstanding += rec->limbo.size();
      c.freed += rec->freed;
    }
    return c;
  }
};

}  // namespace llxscx
