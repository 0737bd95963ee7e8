// Hash map on LLX/SCX (E9) with NON-BLOCKING RESIZE: a power-of-two array
// of buckets, each a Fig. 6-style sorted chain of the list engine
// (list_llxscx.h: head sentinel → items → tail sentinel). Updates in
// distinct buckets have disjoint V-sets, so by claim C-D they never
// interfere — and the same disjointness is what makes the resize
// migration cooperative: every bucket migrates independently, in
// parallel, through its own small SCXs.
//
// Shapes per bucket — the engine's, as in the multiset (DESIGN.md §6/§9):
//   upsert, key absent  — insert_before: SCX(V=⟨pred⟩,            R=∅)            k=1
//   upsert, key present — replace:       SCX(V=⟨pred, cur⟩,       R=⟨cur⟩)        k=2
//   erase               — remove:        SCX(V=⟨pred, cur, succ⟩, R=⟨cur, succ⟩)  k=3
//
// A node's value is immutable: upsert on an existing key REPLACES the
// node (fresh copy with the new value, old one finalized + retired), the
// same discipline that keeps every installed pointer fresh everywhere
// else in this repo. get()/contains() traverse with plain reads
// (Proposition 2). Routing, backpressure and the migration's seal, copy
// and finish SCXs are this file's own.
//
// ---- Resize (DESIGN.md §9, "bucket migration") --------------------------
//
// The map holds an atomic pointer to a Table descriptor {heads, mask,
// next, cursor, migrated}. A growth is triggered on the UPDATE path: when
// an update's bucket walk exceeds kResizeChainLen nodes (the occupancy
// signal, measured with the traversal reads the walk already performs), it
// publishes a double-size Table into table->next with one CAS and starts
// migrating. Each bucket then moves through three states:
//
//   LIVE      head → items… → tail           (normal operation)
//   SEALED    head → M → frozen items… → tail
//             One seal SCX: V = ⟨head, every chain item⟩ — ALL finalized
//             via ScxOp::seal() (frozen forever, NOT retired) — installing
//             a fresh kMoved marker M as head.next, M.next = old first.
//             Freezing the whole chain is what makes the seal airtight:
//             any straggling update's V intersects it, so the straggler's
//             SCX fails (claim C-A). The frozen chain stays reachable and
//             is still the bucket's authoritative content.
//   MIGRATED  head → M → D (kDone marker)
//             Helpers copy each frozen ⟨key,value⟩ into the next table
//             with an insert-if-absent SCX whose V INCLUDES M (k=2:
//             ⟨M, pred⟩) — so a stalled helper's late copy atomically
//             fails once the bucket is finished, and can never resurrect
//             a key that a newer, routed erase already removed. The
//             finish SCX (V=⟨M⟩, M.next ← D) then commits exactly once;
//             its winner retires the frozen chain + old tail.
//
// Two routers carry every operation through those states. Updates —
// upsert, erase, and the migration's own copies — reach their slot through
// one cursor, locate(): a bucket it finds SEALED is driven to MIGRATED
// (route()) and the walk retried in the next table. Every update during a
// resize also migrates a small claimed stride of buckets (Table::cursor),
// so the resize is cooperative and finishes even if the initiating thread
// dies. Readers — get(), the multi_get lanes and the whole-table walks —
// never help: chain_of() hands them a SEALED bucket's frozen chain (its
// load of M.next is the linearization point — no update to those keys can
// commit anywhere before the finish SCX) and sends them to the next table
// from a MIGRATED bucket. When every bucket is MIGRATED, table_ swaps to
// the next table and the winner retires the old heads, markers, and
// descriptor through the Reclaim policy (stale readers stay safe under
// their epoch guards). A table only grows while it IS table_, so at most
// one migration is in flight per table generation and the next table's
// buckets are never sealed while copies into them run.
//
// Backpressure: only an insert of an absent key measures the bucket's
// FULL chain length (the walk to its slot plus the remainder of the
// chain, counted only up to the bound — insert depth alone is NOT a
// bound: a descending-key stream inserts at the front of the chain with
// depth 0 forever). A replace and an erase never lengthen a chain: they
// stop at their key and report their walk depth to the trigger. At
// kStallChainLen it refuses to lengthen the chain — it routes its bucket
// to the next table instead and inserts there. A table still being
// migrated INTO (not yet table_) has no successor to route to, so route()
// first helps that migration finish, then grows the table: route() never
// returns null, and the one-migration-per-generation rule holds. A
// committed insert therefore measured < kStallChainLen, so chains are
// bounded by kStallChainLen plus in-flight inserts (at most one per
// concurrent thread: the measurement happens in the same pass as the
// walk), under the seal SCX's V capacity (ScxRecord::kMaxV − 1) whenever
// fewer than kSealMaxChain − kStallChainLen threads insert into one bucket
// at the same instant; the seal re-walks if transiently exceeded.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/list_llxscx.h"

namespace llxscx {

// Occupancy snapshot (per-bucket chain profile). Exact when quiescent; a
// consistent-ish estimate under concurrency (like size()) — during a
// migration a bucket's keys may be counted from the frozen chain or from
// the next table's split buckets, whichever is authoritative when the
// walk reaches it. The walk re-enters its reclamation guard per bucket so
// a multi-million-key scan never pins the epoch across the whole table
// (that would stall every other thread's reclamation).
struct HashMapOccupancy {
  std::size_t buckets = 0;
  std::size_t items = 0;
  std::size_t nonempty_buckets = 0;
  std::size_t max_bucket = 0;  // longest single-bucket chain
  double load_factor = 0.0;    // items / buckets
};

// The bucket hash: murmur3's 64-bit finalizer (fmix64). It is a bijection
// in which every output bit depends on every input bit, so its low bits
// spread dense keys evenly at any power-of-two table size.
constexpr std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

// Bucket chains are list-engine chains, and the migration's markers M and
// D (header comment) are the ListNode kinds kMoved and kDone.
template <class Reclaim = EbrManager>
class BasicLlxScxHashMap {
  using L = List<Reclaim>;

 public:
  using Node = ListNode;
  static constexpr const char* kName = "llxscx-hashmap";

  // Resize tuning (see the header comment). All are chain-length /
  // load-factor constants, not timings. The trigger needs BOTH a long
  // walk and a high table-wide load factor: chain length alone over-grows
  // badly — at any load a Poisson-tail bucket eventually shows a long
  // chain, and doubling on that signal alone walks the table out to load
  // factor ≈ 1 (millions of near-empty buckets). The backpressure path is
  // the exception: a kStallChainLen walk forces a doubling regardless of
  // load, as the safety valve that keeps chains under the seal capacity.
  static constexpr std::size_t kResizeChainLen = 8;   // growth trigger walk
  static constexpr std::size_t kGrowLoadFactor = 4;   // items per bucket
  static constexpr std::size_t kStallChainLen = 24;   // insert backpressure
  static constexpr std::size_t kMigrationStride = 8;  // buckets helped per op
  static constexpr std::size_t kSealMaxChain = ScxRecord::kMaxV - 1;

  // `buckets` is rounded up to a power of two (minimum 1). A 1-bucket map
  // is fully supported: growth doubles it on demand.
  explicit BasicLlxScxHashMap(std::size_t buckets = 1024) {
    table_.store(make_table(buckets), mo::relaxed);
  }
  ~BasicLlxScxHashMap() {
    // Quiescent teardown: walk every reachable node of every table
    // generation still linked from table_ (mid-migration teardown sees
    // head → M → frozen chain → tail and frees all of it; nodes already
    // retired by a finish SCX are unreachable here and drain through the
    // epoch as usual).
    Table* t = table_.load(mo::relaxed);
    while (t != nullptr) {
      for (Node* head : t->heads) L::free_chain(head);
      Table* nt = t->next.load(mo::relaxed);
      Reclaim::dealloc(t);
      t = nt;
    }
  }
  BasicLlxScxHashMap(const BasicLlxScxHashMap&) = delete;
  BasicLlxScxHashMap& operator=(const BasicLlxScxHashMap&) = delete;

  // Insert-or-assign; returns true iff the key was newly inserted.
  bool upsert(std::uint64_t key, std::uint64_t value) {
    Epoch::Guard g;
    Table* t = table_.load(mo::acquire);
    for (;;) {
      const Slot s = locate(t, key);
      if (s.cur->item() && s.cur->key == key) {
        // A value change is a node replacement (see header). It never
        // lengthens the chain, so it stops at its key and reports its walk
        // depth, as erase does.
        if (!L::replace(s, value)) continue;
        after_update(t, s.walked);
        return false;
      }
      // Backpressure + trigger need the chain's LENGTH, not the insert
      // DEPTH (`walked`): a front-of-chain insert walks 0 nodes no matter
      // how long the chain is. Keep counting past the slot, capped at the
      // backpressure bound — beyond it the exact value doesn't matter.
      std::size_t chain = s.walked;
      L::walk_items(s.cur, [&](const Node*) {
        if (chain >= kStallChainLen) return false;
        ++chain;
        return true;
      });
      if (chain >= kStallChainLen) {
        // Backpressure: never lengthen a chain this long — move the bucket
        // to the next table (growing one if needed) and insert there.
        t = route(t, s.b);
        continue;
      }
      if (L::insert_before(s, key, value)) {
        t->items.fetch_add(1, mo::relaxed);
        after_update(t, chain + 1);
        return true;
      }
    }
  }

  // Removes key if present; returns whether it was removed.
  bool erase(std::uint64_t key) {
    Epoch::Guard g;
    Table* t = table_.load(mo::acquire);
    for (;;) {
      const Slot s = locate(t, key);
      const bool present = s.cur->item() && s.cur->key == key;
      if (present && !L::remove(s)) continue;
      if (present) t->items.fetch_sub(1, mo::relaxed);
      after_update(t, s.walked);
      return present;
    }
  }

  std::optional<std::uint64_t> get(std::uint64_t key) const {
    Epoch::Guard g;
    for (const Table* t = table_.load(mo::acquire);;
         t = t->next.load(mo::acquire)) {
      const Node* cur = chain_of(t, bucket_of(key, t->mask));
      if (cur == nullptr) continue;  // MIGRATED: the key lives in t->next
      cur = L::walk_items(cur, [&](const Node* n) { return n->key < key; });
      if (cur->item() && cur->key == key) return cur->value;
      return std::nullopt;
    }
  }

  // Unified container interface (DESIGN.md §9).
  bool insert(std::uint64_t key, std::uint64_t value) {
    return upsert(key, value);
  }
  bool contains(std::uint64_t key) const { return get(key).has_value(); }

  // Batched membership (DESIGN.md §14): out[i] = contains(keys[i]).
  //
  // Up to kLanes lookups run as INTERLEAVED hand-over-hand chain walks:
  // each lane advances one node per round-robin turn and prefetches its
  // next frontier node, so the lanes' cache misses overlap instead of
  // serializing — the same chase a scalar get() pays end to end per key.
  //
  // Shape contract: every shared step is the SAME instrumented next_of a
  // scalar get() issues, in the same per-key sequence (the lane's head
  // step is get()'s chain_of() routing, then the ordered-chain walk) —
  // 0 LLX, 0 CAS, per-key read counts identical to get(). One epoch guard
  // covers the whole call; each lane's linearization point is per key,
  // exactly as in get() (a batch is not a snapshot).
  void multi_get(const std::uint64_t* keys, std::size_t n, bool* out) const {
    Epoch::Guard g;
    constexpr std::size_t kLanes = 8;
    enum : unsigned char { kLaneHead, kLaneWalk, kLaneDone };
    const Table* t0 = table_.load(mo::acquire);
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t m = std::min(kLanes, n - base);
      const Table* t[kLanes];
      const Node* cur[kLanes];
      unsigned char st[kLanes];
      for (std::size_t l = 0; l < m; ++l) {
        t[l] = t0;
        st[l] = kLaneHead;
        __builtin_prefetch(t0->heads[bucket_of(keys[base + l], t0->mask)]);
      }
      std::size_t live = m;
      while (live > 0) {
        for (std::size_t l = 0; l < m; ++l) {
          if (st[l] == kLaneDone) continue;
          const std::uint64_t key = keys[base + l];
          if (st[l] == kLaneHead) {
            const Node* c = chain_of(t[l], bucket_of(key, t[l]->mask));
            if (c == nullptr) {
              t[l] = t[l]->next.load(mo::acquire);
              __builtin_prefetch(t[l]);
              continue;  // retry this lane at the successor table's head
            }
            cur[l] = c;
            __builtin_prefetch(c);
            st[l] = kLaneWalk;
            continue;
          }
          const Node* c = cur[l];
          if (c->item() && c->key < key) {
            const Node* nx = L::next_of(c);
            __builtin_prefetch(nx);
            cur[l] = nx;
          } else {
            out[base + l] = c->item() && c->key == key;
            st[l] = kLaneDone;
            --live;
          }
        }
      }
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for_each_bucket([&](std::size_t chain) { n += chain; },
                    [](const Node*) {}, [] { return false; });
    return n;
  }

  std::size_t bucket_count() const {
    Epoch::Guard g;
    return table_.load(mo::acquire)->heads.size();
  }

  // Walk every bucket and report the occupancy profile. One guard PER
  // BUCKET (not across the walk): at millions of keys a single guard
  // would pin the epoch long enough to stall reclamation for every
  // thread. The result was always documented as an estimate under
  // concurrency; per-bucket guards keep exactly that contract.
  HashMapOccupancy occupancy() const {
    HashMapOccupancy o;
    o.buckets = bucket_count();
    for_each_bucket(
        [&](std::size_t chain) {
          o.items += chain;
          if (chain > 0) ++o.nonempty_buckets;
          o.max_bucket = std::max(o.max_bucket, chain);
        },
        [](const Node*) {}, [] { return false; });
    o.load_factor =
        static_cast<double>(o.items) / static_cast<double>(o.buckets);
    return o;
  }

  // All ⟨key, value⟩ pairs, bucket by bucket. Quiescent callers only.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for_each_bucket([](std::size_t) {},
                    [&](const Node* n) { out.emplace_back(n->key, n->value); },
                    [] { return false; });
    return out;
  }

  // Explicitly-UNORDERED bounded scan — the container contract's scan
  // verb for engines with no key order (DESIGN.md §15): appends up to
  // `limit` ⟨key, value⟩ pairs in bucket order, returns how many were
  // appended. The occupancy()/items() walk, stopped at the limit: memory-
  // safe under concurrency, routed through the migration states, and the
  // same contract — a sample of one serialization, not a snapshot.
  std::size_t scan_n(
      std::size_t limit,
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
    const std::size_t base = out.size();
    for_each_bucket(
        [](std::size_t) {},
        [&](const Node* n) {
          if (out.size() - base < limit) out.emplace_back(n->key, n->value);
        },
        [&] { return out.size() - base >= limit; });
    return out.size() - base;
  }

 private:
  // Table descriptor: one generation of the bucket array plus the
  // migration state toward the next. Reachable from table_ (current) and
  // from older generations' next pointers until their swap retires them.
  struct Table {
    std::vector<Node*> heads;
    std::size_t mask = 0;
    std::atomic<Table*> next{nullptr};      // double-size successor
    std::atomic<std::size_t> cursor{0};     // next stride claim (may pass n)
    std::atomic<std::size_t> migrated{0};   // buckets whose finish committed
    // Approximate item count (relaxed, maintained by committed updates and
    // migration copies) — the load-factor half of the growth trigger.
    // Signed: racing erase/insert accounting may transiently skew it.
    std::atomic<std::int64_t> items{0};
  };

  // The low bits of fmix64(key). Low bits of one hash are what migration's
  // split needs: bucket b of t holds exactly the keys of buckets b and
  // b + |t| of t->next. The mixer spreads dense small-integer key sets
  // (every bench and test) over all buckets at any table size.
  static std::size_t bucket_of(std::uint64_t key, std::size_t mask) {
    return static_cast<std::size_t>(fmix64(key)) & mask;
  }

  Table* make_table(std::size_t buckets) const {
    std::size_t b = 1;
    while (b < buckets) b <<= 1;
    Table* t = Reclaim::template alloc<Table>();
    t->mask = b - 1;
    t->heads.reserve(b);
    for (std::size_t i = 0; i < b; ++i) {
      t->heads.push_back(Reclaim::template alloc<Node>(
          0, 0, Reclaim::template alloc<Node>(Node::kTail)));
    }
    return t;
  }

  void free_table_now(Table* t) const {
    for (Node* head : t->heads) L::free_chain(head);  // never published
    Reclaim::dealloc(t);
  }

  // --- the two routers ----------------------------------------------------

  // The reader router: the chain holding bucket b's keys in t — the LIVE
  // chain, or a SEALED bucket's frozen chain — or null for a MIGRATED
  // bucket, whose keys live in t->next's buckets b and b + |t|. The load of
  // M.next is a sealed bucket's linearization point: while it still names
  // the frozen chain, no update to the bucket's keys can have committed
  // anywhere (updates must first drive the finish SCX, which changes it).
  static const Node* chain_of(const Table* t, std::size_t b) {
    const Node* first = L::next_of(t->heads[b]);
    if (first->kind() != Node::kMoved) return first;
    const Node* fc = L::next_of(first);
    return fc->kind() == Node::kDone ? nullptr : fc;
  }

  // An update's position for key: the engine's pinned slot (pred LLXed,
  // cur as that snapshot saw pred.next; every update SCX links the
  // snapshot), plus where locate() found it.
  struct Slot : L::Slot {
    std::size_t walked;  // items walked past: the insert depth
    std::size_t b;
  };

  // The updater cursor: key's slot in t, routing through every bucket it
  // finds SEALED (route() migrates it and t becomes the next table), so on
  // return t names the table the slot is in. An ok LLX of a head never
  // shows the marker M — the seal SCX that installs M finalizes the head —
  // so the one kMoved test sits on the walk, before the LLX.
  Slot locate(Table*& t, std::uint64_t key) {
    for (;;) {
      const std::size_t b = bucket_of(key, t->mask);
      const auto w = L::walk_to(t->heads[b], key);
      if (w.cur->kind() == Node::kMoved) {
        t = route(t, b);
        continue;
      }
      if (const auto s = L::pin(w.pred, key)) return {*s, w.walked, b};
    }
  }

  // Drive bucket b of t to MIGRATED, help a stride, and hand back the next
  // table to retry the operation on: for a bucket locate() found SEALED,
  // or one backpressure refuses to lengthen. Never null: a sealed bucket's
  // table always has a successor, and a table backpressure finds without
  // one is grown — after helping the migration INTO it finish, since a
  // table may only grow while it IS table_.
  Table* route(Table* t, std::size_t b) {
    while (t->next.load(mo::acquire) == nullptr) {
      Table* const cur = table_.load(mo::acquire);
      if (cur == t) {
        grow(t);
      } else {
        help_migrate(cur);
      }
    }
    migrate_bucket(t, b);
    help_migrate(t);
    return t->next.load(mo::acquire);
  }

  // --- migration machinery ----------------------------------------------

  // Publish a double-size successor for t (no-op if one exists or t is no
  // longer current), then help migrate.
  void grow(Table* t) {
    if (t->next.load(mo::acquire) == nullptr &&
        table_.load(mo::relaxed) == t) {
      Table* fresh = make_table((t->mask + 1) * 2);
      Table* expected = nullptr;
      // release: publishes the fresh heads before any helper can route
      // into them.
      if (!t->next.compare_exchange_strong(expected, fresh, mo::acq_rel,
                                           mo::acquire)) {
        free_table_now(fresh);  // lost the initiation race
      }
    }
    help_migrate(t);
  }

  // Called after every committed update: helps an in-flight migration
  // along, or triggers one when this op's observed chain length crossed
  // the threshold AND the table-wide load factor warrants doubling. An
  // insert of an absent key passes the measured chain length; a replace
  // and an erase pass their walk depth (a lower bound — neither lengthens
  // a chain, and any insert into the bucket measures the full length).
  // Loads only on the fast path — the pinned per-op SCX shapes are
  // untouched.
  void after_update(Table* t, std::size_t chain) {
    if (t->next.load(mo::acquire) != nullptr) {
      help_migrate(t);
    } else if (chain >= kResizeChainLen &&
               t->items.load(mo::relaxed) >=
                   static_cast<std::int64_t>((t->mask + 1) * kGrowLoadFactor)) {
      grow(t);
    }
  }

  // Claim and migrate a stride of buckets; once the cursor is exhausted,
  // sweep for buckets whose claimer stalled, so the resize completes as
  // long as ANY thread keeps updating (lock-free cooperative finish).
  void help_migrate(Table* t) {
    if (t->next.load(mo::acquire) == nullptr) return;
    const std::size_t n = t->heads.size();
    if (t->cursor.load(mo::relaxed) < n) {
      const std::size_t start = t->cursor.fetch_add(kMigrationStride,
                                                    mo::relaxed);
      const std::size_t end = std::min(start + kMigrationStride, n);
      for (std::size_t b = start; b < end; ++b) migrate_bucket(t, b);
    } else {
      // Endgame sweep. migrate_bucket returns only once its bucket is
      // MIGRATED, so a sweep that visited every bucket proves completion
      // by direct inspection and finishes unconditionally. The `migrated`
      // counter is only a short-circuit — completion must never DEPEND on
      // it: a finish winner that stalls (or dies) between its commit and
      // its fetch_add leaves the counter at n−1 forever, and a
      // counter-gated finish would then never swap table_. (The counter
      // never overcounts — each bucket's finish SCX commits exactly once
      // — so ==n remains a sound fast path.)
      std::size_t b = 0;
      for (; b < n; ++b) {
        if (t->migrated.load(mo::relaxed) == n) break;
        migrate_bucket(t, b);
      }
      finish_table(t);
      return;
    }
    if (t->migrated.load(mo::acquire) == n) finish_table(t);
  }

  // The copy predicate: snapshot a sealed bucket's marker M into lm
  // (retrying while an SCX on M is in flight — M is never finalized) and
  // report whether the bucket is unfinished, i.e. M.next is not yet kDone.
  static bool unfinished(Node* m, LlxResult<Node::kNumMut>& lm) {
    do {
      lm = llx(m);
    } while (!lm.ok());
    return L::to_node(lm.field(Node::kNext))->kind() != Node::kDone;
  }

  // Drive bucket b of t from LIVE through SEALED to MIGRATED (idempotent;
  // any number of helpers may run it concurrently).
  void migrate_bucket(Table* t, std::size_t b) {
    Table* nt = t->next.load(mo::acquire);
    if (nt == nullptr) return;
    Node* const head = t->heads[b];
    for (;;) {
      Node* const m = L::next_of(head);
      if (m->kind() != Node::kMoved) {
        seal_bucket(head);
        continue;  // re-read: now head.next is a kMoved marker
      }
      LlxResult<Node::kNumMut> lm;
      if (!unfinished(m, lm)) return;  // MIGRATED
      Node* const fc = L::to_node(lm.field(Node::kNext));
      // Copy the frozen chain into the next table. Every copy's V
      // includes M, so copies atomically stop competing the instant the
      // finish SCX commits — a stalled helper can never resurrect a key
      // that a routed erase already removed from the next table. A copy
      // that reports the bucket finished under us stops the walk on it.
      if (L::walk_items(fc, [&](const Node* n) {
            return copy_into_next(nt, m, n->key, n->value);
          })->item()) {
        return;
      }
      // Finish: M.next ← fresh kDone marker. Exactly one commit wins. Link
      // a snapshot of M taken after the copies: each committed copy froze
      // M, so the first snapshot would fail the finish and send us over
      // the copies again. Only the finish moves M.next, so the new
      // snapshot still names fc unless the bucket finished under us.
      if (!unfinished(m, lm)) return;
      ScxOp<Node, Reclaim> op;
      op.link(lm);
      auto d = op.freshly(Node::kDone);
      op.write(m, Node::kNext, d);
      if (op.commit()) {
        // The winner — and only the winner — retires the frozen chain
        // (items + the bucket's old tail), exactly once. Stale readers
        // still walking it are protected by their epoch guards.
        L::free_chain(fc, &Reclaim::template retire<Node>);
        // acq_rel: the count is the swap gate — the winner of the last
        // bucket must observe every other finish before retiring heads.
        if (t->migrated.fetch_add(1, mo::acq_rel) + 1 == t->heads.size()) {
          finish_table(t);
        }
        return;
      }
      // Lost the finish race; the next iteration observes kDone.
    }
  }

  // One seal SCX: freeze head + the whole chain (seal(): finalize, no
  // retire) and install a fresh kMoved marker. Returns with the bucket
  // sealed by us or someone else.
  void seal_bucket(Node* head) {
    for (;;) {
      auto lh = llx(head);
      if (lh.is_finalized()) return;  // sealed by another thread
      if (!lh.ok()) continue;
      Node* const first = L::to_node(lh.field(Node::kNext));
      if (first->kind() == Node::kMoved) return;
      ScxOp<Node, Reclaim> op;
      op.seal(lh);
      bool restart = false;
      std::size_t count = 0;
      for (Node* n = first; n->item();) {
        auto ln = llx(n);
        if (!ln.ok() || ++count > kSealMaxChain) {
          // A concurrent update moved the chain, or it overshot the V
          // capacity. Overshoot past kStallChainLen is possible only via
          // in-flight inserts that measured the chain before it reached
          // the bound — at most one per concurrent thread — and
          // backpressure blocks every later insert, so the chain stops
          // growing and the re-walk converges.
          restart = true;
          break;
        }
        op.seal(ln);
        n = L::to_node(ln.field(Node::kNext));
      }
      if (restart) continue;
      auto m = op.freshly(Node::kMoved, first);
      op.write(head, Node::kNext, m);
      if (op.commit()) return;
    }
  }

  // Insert-if-absent of a migrated pair into the next table, atomically
  // predicated on bucket-not-finished (M ∈ V). Returns false once the
  // bucket's finish SCX has committed (stop copying). An existing entry
  // for the key always wins: it is either another helper's copy of the
  // same frozen pair or a strictly newer routed upsert.
  bool copy_into_next(Table* nt, Node* m, std::uint64_t key,
                      std::uint64_t value) {
    for (;;) {
      LlxResult<Node::kNumMut> lm;
      if (!unfinished(m, lm)) return false;
      const Slot s = locate(nt, key);
      if (s.cur->item() && s.cur->key == key) return true;
      ScxOp<Node, Reclaim> op;
      op.link(lm);  // the not-finished predicate
      op.link(s.lp);
      op.write(s.pred, Node::kNext, op.freshly(key, value, s.cur));
      if (op.commit()) {
        nt->items.fetch_add(1, mo::relaxed);
        return true;
      }
    }
  }

  // Swap table_ to the fully migrated successor; the CAS winner retires
  // the old generation (heads, markers, descriptor) through the policy.
  void finish_table(Table* t) {
    Table* nt = t->next.load(mo::acquire);
    Table* expected = t;
    if (!table_.compare_exchange_strong(expected, nt, mo::acq_rel,
                                        mo::relaxed)) {
      return;
    }
    // Each old head → M → D chain.
    for (Node* head : t->heads) {
      L::free_chain(head, &Reclaim::template retire<Node>);
    }
    Reclaim::retire(t);
  }

  // --- whole-table walks (size / occupancy / items / scan_n) --------------

  // Visit bucket b of t: its chain_of() chain, or — once MIGRATED — the
  // next table's two split buckets, each routed the same way.
  void scan_bucket(const Table* t, std::size_t b, const auto& chain_fn,
                   const auto& node_fn) const {
    if (const Node* c = chain_of(t, b)) {
      std::size_t n = 0;
      L::walk_items(c, [&](const Node* x) {
        node_fn(x);
        ++n;
        return true;
      });
      chain_fn(n);
      return;
    }
    const Table* nt = t->next.load(mo::acquire);
    scan_bucket(nt, b, chain_fn, node_fn);
    scan_bucket(nt, b + t->heads.size(), chain_fn, node_fn);
  }

  // Guard re-entered per bucket (see occupancy()); the table pointer is
  // re-loaded under each guard because the previous generation may have
  // been retired in between. Stops before the next bucket once stop()
  // holds. Exact when quiescent, an estimate while the table grows
  // underneath the walk.
  void for_each_bucket(const auto& chain_fn, const auto& node_fn,
                       const auto& stop) const {
    const std::size_t nbuckets = bucket_count();
    for (std::size_t b = 0; b < nbuckets && !stop(); ++b) {
      Epoch::Guard g;
      const Table* t = table_.load(mo::acquire);
      if (b >= t->heads.size()) break;  // defensive; tables never shrink
      scan_bucket(t, b, chain_fn, node_fn);
    }
  }

  std::atomic<Table*> table_;
};

using LlxScxHashMap = BasicLlxScxHashMap<EbrManager>;

}  // namespace llxscx
