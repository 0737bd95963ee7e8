// ScxOp — the typed, structure-facing builder for SCX operations.
//
// DESIGN.md §8 used to be a prose checklist ("old must come from the LLX
// snapshot", "new must be a fresh allocation", "retire R exactly once…")
// that every structure re-implemented by hand. This builder turns the
// checklist into an API: a structure accumulates the operation —
//
//   ScxOp<Node> op;                    // one op == one SCX attempt
//   op.link(lp);                       // V-only: stability witness
//   op.remove(lc);                     // V + R: finalized & retired on commit
//   auto n = op.freshly(…ctor args…);  // fresh-copy construction, tracked
//   op.write(pred, Node::kNext, n);    // fld ← new; old taken from lp's snapshot
//   if (op.commit()) return …;         // SCX + exactly-once retirement
//
// and the builder enforces the §8 rules:
//
//   - `old` CANNOT be wrong: write() has no old parameter — it is always
//     the owner's captured LLX-snapshot value (§8 rule 4, by construction).
//   - `new` must be fresh: write() only accepts a Fresh<Node> token, and
//     only this op's freshly() can mint one (§8 rule 3, at compile time);
//     a token smuggled in from another op is caught at runtime.
//   - fld's owner must be in V (checked), V is capped at ScxRecord::kMaxV,
//     and exactly one field is written per SCX.
//   - On commit the builder retires the R-set plus declared orphans
//     (nodes the commit unlinked without finalizing, e.g. the trees'
//     removed leaf) exactly once, in V order then declaration order; on
//     abort it deletes every freshly() allocation instead (§8 rule 5).
//     seal() is the one exception: it finalizes WITHOUT retiring, for
//     records the commit freezes but leaves reachable (the hash map's
//     bucket seal) — their exactly-once retirement transfers to the
//     caller.
//   - validate() runs VLX over the accumulated V-set for read-only
//     position checks (claim C-C) without building an SCX.
//
// Misuse reporting: every rule above that cannot be a compile error is a
// cheap thread-local check (pointer compares on builder-local state — no
// shared steps, so the pinned k+1-CAS / f+2-writes / alloc shapes are
// byte-identical to hand-rolled SCX assembly). A violation poisons the op
// — commit() then fails safely and frees the fresh nodes — and reports
// through scx_op_misuse_handler(): tests install a recording handler;
// with none installed the default prints the diagnostic and aborts (in
// every build mode — a deterministic misuse inside a structure's retry
// loop would otherwise livelock silently).
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "llxscx/llx_scx.h"
#include "reclaim/record_manager.h"

namespace llxscx {

// The misuse diagnostics, exposed so tests can assert on the exact rule
// that fired.
inline constexpr const char kScxOpStaleSnapshot[] =
    "ScxOp: link/remove needs an OK LLX snapshot (it failed or was finalized)";
inline constexpr const char kScxOpNewNotFresh[] =
    "ScxOp: `new` must be a freshly() allocation of THIS operation";
inline constexpr const char kScxOpOwnerNotInV[] =
    "ScxOp: the written field's owner record is not in V";
inline constexpr const char kScxOpSourceNotInV[] =
    "ScxOp: write_handoff source record is not in V";
inline constexpr const char kScxOpSecondWrite[] =
    "ScxOp: an SCX writes exactly one field";
inline constexpr const char kScxOpNoWrite[] =
    "ScxOp: commit() without a write()";
inline constexpr const char kScxOpTooManyRecords[] =
    "ScxOp: V exceeds ScxRecord::kMaxV";
inline constexpr const char kScxOpTooManyFresh[] =
    "ScxOp: more than kMaxFresh freshly() allocations in one operation";
inline constexpr const char kScxOpTooManyOrphans[] =
    "ScxOp: more than kMaxOrphans orphan() declarations in one operation";
inline constexpr const char kScxOpBadField[] =
    "ScxOp: field index out of the record's mutable range";

// Installable hook for the diagnostics above (tests). nullptr = default:
// print and abort, in every build mode. With a handler installed the op
// is poisoned and commit() fails without touching shared memory.
using ScxOpMisuseHandler = void (*)(const char* diagnostic);
inline ScxOpMisuseHandler& scx_op_misuse_handler() {
  static ScxOpMisuseHandler h = nullptr;
  return h;
}

// Proof-of-freshness token: only ScxOp<NodeT>::freshly() mints one, so a
// plain NodeT* — anything already published — cannot be passed to write()
// (compile error). Converts back to NodeT* for building other fresh nodes
// on top (a fresh internal node taking fresh leaves as children).
template <typename NodeT>
class Fresh {
 public:
  NodeT* get() const { return p_; }
  NodeT* operator->() const { return p_; }
  operator NodeT*() const { return p_; }

 private:
  explicit Fresh(NodeT* p) : p_(p) {}
  NodeT* p_;

  template <typename, RecordManager>
  friend class ScxOp;
};

// One SCX operation over records of a single node type, bound to a
// reclamation policy (reclaim/record_manager.h). Stack-allocated, one per
// attempt (retry loops construct a new one per iteration); never shared
// between threads. The policy decides where freshly() nodes come from and
// what commit-time retirement does — EbrManager is the default, the
// LeakyManager instantiation is E8's no-free ablation (what used to be a
// hand-copied Leaky multiset).
template <typename NodeT, RecordManager Reclaim = EbrManager>
class ScxOp {
 public:
  static constexpr std::size_t kMut = NodeT::kNumMut;
  // 40 fresh slots: the per-op tree shapes need ≤ 6, but a leaf-group bulk
  // build (tree_template.h insert_all, DESIGN.md §15) installs a subtree of
  // G new leaves + 1 displaced-leaf copy + G internals = 2G + 1 fresh nodes
  // in ONE SCX; G is capped at 16 by the trees' group_cap hooks, so 40
  // leaves headroom. Purely an array bound — nfresh_ is runtime, so the
  // pinned f+2-writes / alloc shapes of the scalar ops are unaffected.
  static constexpr std::size_t kMaxFresh = 40;
  static constexpr std::size_t kMaxOrphans = 4;

  ScxOp() = default;
  ~ScxOp() {
    // An op dropped without commit() (a later LLX failed, or validate-only
    // use) aborts: nothing was published, so the fresh nodes die with it.
    if (!done_) delete_fresh();
  }
  ScxOp(const ScxOp&) = delete;
  ScxOp& operator=(const ScxOp&) = delete;

  // Add a record to V only: the SCX commits only if it is unchanged since
  // the snapshot. Returns the typed record for convenience.
  NodeT* link(const LlxResult<kMut>& l) {
    return add(l, /*finalize=*/false, /*retire=*/false);
  }

  // Add a record to V and R: on commit it is finalized (permanently
  // frozen, LLX reports FINALIZED) and retired by this builder.
  NodeT* remove(const LlxResult<kMut>& l) {
    return add(l, /*finalize=*/true, /*retire=*/true);
  }

  // Add a record to V and R WITHOUT builder-side retirement: on commit it
  // is finalized (no SCX can ever touch it again) but stays REACHABLE and
  // alive — the caller owns its eventual, exactly-once retirement.
  //
  // This is the bucket-seal shape (ds/hashmap_llxscx.h): the resize
  // migration freezes an entire chain in one SCX so no late update can
  // mutate it, then keeps the frozen chain readable (plain reads) until
  // its keys have been copied to the next table; only the thread whose
  // finish-SCX commits may retire the chain, through the same Reclaim
  // policy (Reclaim::retire). remove() would retire at seal time —
  // a use-after-free for every reader still walking the sealed bucket
  // after the grace period.
  NodeT* seal(const LlxResult<kMut>& l) {
    return add(l, /*finalize=*/true, /*retire=*/false);
  }

  // Construct a fresh NodeT. The builder owns it until commit(): published
  // on success, deleted on abort. Only these tokens are accepted as the
  // SCX's `new` value (the §3 usage assumption: a value that has never
  // appeared in fld before).
  template <typename... Args>
  Fresh<NodeT> freshly(Args&&... args) {
    if (nfresh_ >= kMaxFresh) {
      // Poison BEFORE allocating: an untracked node could never be freed.
      // The null token is safe to pass onward (commit() will fail), but
      // not to dereference — the op is already condemned.
      misuse(kScxOpTooManyFresh);
      return Fresh<NodeT>(nullptr);
    }
    NodeT* n = Reclaim::template alloc<NodeT>(std::forward<Args>(args)...);
    fresh_[nfresh_++] = n;
    return Fresh<NodeT>(n);
  }

  // Declare a node the commit makes unreachable WITHOUT finalizing it (the
  // trees' removed leaf: immutable fields, position covered by a finalized
  // parent). Retired with the R-set, exactly once, on commit.
  void orphan(NodeT* n) {
    if (norphan_ >= kMaxOrphans) return misuse(kScxOpTooManyOrphans);
    orphans_[norphan_++] = n;
  }

  // fld ← fresh node. `old` is implicitly owner's snapshot value of that
  // field — the one value that makes "SCX committed ⇒ fld was written"
  // true (§8 rule 4).
  void write(NodeT* owner, std::size_t field, Fresh<NodeT> val) {
    if (!is_fresh(val.get())) return misuse(kScxOpNewNotFresh);
    write_word(owner, field, reinterpret_cast<std::uint64_t>(val.get()));
  }

  // fld ← a pointer captured in the snapshot of `src` (which must be in V,
  // and is normally in R). This is the one sanctioned exception to the
  // fresh-`new` rule, for shapes where the handed-off value provably never
  // appeared in fld before — e.g. the queue's dequeue installing
  // first.next into head.next: `first` enters head.next at most once in
  // its lifetime, because the handoff finalizes the unique predecessor.
  // The value-uniqueness argument is the calling structure's obligation;
  // document it at the call site.
  void write_handoff(NodeT* owner, std::size_t field, NodeT* src,
                     std::size_t src_field) {
    if (src_field >= kMut) return misuse(kScxOpBadField);
    const std::size_t si = index_of(src);
    if (si == kNpos) return misuse(kScxOpSourceNotInV);
    write_word(owner, field, snap_[si][src_field]);
  }

  // VLX over the accumulated V-set (claim C-C: k shared reads): true iff
  // every linked record is still unchanged since its snapshot. Read-only —
  // usable without (or before) a write.
  bool validate() const { return !poisoned_ && k_ > 0 && vlx(v_, k_); }

  bool poisoned() const { return poisoned_; }

  // Run the SCX. True ⇒ committed: fld holds the new value, R is
  // finalized, and R + orphans have been retired (exactly once — this
  // builder is the only retirer, and it runs only on the committing
  // thread). False ⇒ nothing was published; fresh nodes are freed.
  bool commit() {
    assert(!done_);
    done_ = true;
    if (fld_ == nullptr && !poisoned_) misuse(kScxOpNoWrite);
    if (poisoned_) {
      delete_fresh();
      return false;
    }
    const bool ok = scx(v_, k_, fmask_, fld_, old_, new_);
    if (!ok) {
      delete_fresh();
      return false;
    }
    for (std::size_t i = 0; i < k_; ++i) {
      if (retire_mask_ & (std::uint64_t{1} << i)) Reclaim::retire(record(i));
    }
    for (std::size_t i = 0; i < norphan_; ++i) Reclaim::retire(orphans_[i]);
    return true;
  }

 private:
  static constexpr std::size_t kNpos = ~std::size_t{0};

  NodeT* add(const LlxResult<kMut>& l, bool finalize, bool retire) {
    if (!l.ok()) {
      misuse(kScxOpStaleSnapshot);
      return nullptr;
    }
    if (k_ >= ScxRecord::kMaxV) {
      misuse(kScxOpTooManyRecords);
      return nullptr;
    }
    v_[k_] = l.link();
    for (std::size_t f = 0; f < kMut; ++f) snap_[k_][f] = l.field(f);
    if (finalize) fmask_ |= std::uint64_t{1} << k_;
    if (retire) retire_mask_ |= std::uint64_t{1} << k_;
    return record(k_++);
  }

  void write_word(NodeT* owner, std::size_t field, std::uint64_t val) {
    if (field >= kMut) return misuse(kScxOpBadField);
    if (fld_ != nullptr) return misuse(kScxOpSecondWrite);
    const std::size_t i = index_of(owner);
    if (i == kNpos) return misuse(kScxOpOwnerNotInV);
    fld_ = &owner->mut(field);
    old_ = snap_[i][field];
    new_ = val;
  }

  NodeT* record(std::size_t i) const {
    return static_cast<NodeT*>(v_[i].rec);
  }

  std::size_t index_of(const NodeT* r) const {
    for (std::size_t i = 0; i < k_; ++i) {
      if (record(i) == r) return i;
    }
    return kNpos;
  }

  bool is_fresh(const NodeT* n) const {
    for (std::size_t i = 0; i < nfresh_; ++i) {
      if (fresh_[i] == n) return true;
    }
    return false;
  }

  void delete_fresh() {
    // Reverse order: later fresh nodes may point at earlier ones, but
    // nodes own nothing, so either order is safe; reverse mirrors
    // construction for readability. dealloc: these were never published,
    // so the policy owes them no grace period.
    while (nfresh_ > 0) Reclaim::dealloc(fresh_[--nfresh_]);
  }

  void misuse(const char* what) {
    poisoned_ = true;
    if (ScxOpMisuseHandler h = scx_op_misuse_handler()) {
      h(what);
      return;
    }
    // No handler installed: fail fast in EVERY build mode. Merely letting
    // commit() return false would turn a deterministic programming error
    // into a silent infinite retry loop in the calling structure.
    std::fprintf(stderr, "%s\n", what);
    std::abort();
  }

  // V once: v_[i] is the i-th record's link, snap_[i] its LLX snapshot's
  // field words. Neither is initialized: an attempt writes and reads only
  // entries below k_.
  LinkedLlx v_[ScxRecord::kMaxV];
  std::uint64_t snap_[ScxRecord::kMaxV][kMut];
  std::size_t k_ = 0;
  std::uint64_t fmask_ = 0;         // finalize bits (passed to scx)
  std::uint64_t retire_mask_ = 0;   // ⊆ fmask_: bits this builder retires;
                                    // seal() sets fmask only (caller owns)
  NodeT* fresh_[kMaxFresh];
  std::size_t nfresh_ = 0;
  NodeT* orphans_[kMaxOrphans];
  std::size_t norphan_ = 0;
  std::atomic<std::uint64_t>* fld_ = nullptr;
  std::uint64_t old_ = 0;
  std::uint64_t new_ = 0;
  bool done_ = false;
  bool poisoned_ = false;
};

}  // namespace llxscx
