// LLX/SCX — the paper's pragmatic primitives (§3), over multi-word
// Data-records.
//
//   LLX(r)            — load-link extended: returns a snapshot of r's
//                       mutable fields, or FAIL (r is frozen / changed
//                       underfoot), or FINALIZED (r was removed).
//   SCX(V, R, fld, …) — store-conditional extended: atomically verify that
//                       no record in V changed since this thread's LLX of
//                       it, write `new` into the single mutable field fld,
//                       and finalize the records in R. Lock-free;
//                       implemented with one freezing CAS per record plus
//                       one update CAS (the k+1 CAS of claim C-A).
//   VLX(V)            — validate-extended: k shared reads (claim C-C).
//
// Descriptors: the paper allocates a fresh SCX-record per SCX and lets the
// garbage collector reclaim it (§6). Here each thread owns ONE SCX-record
// slot in a fixed static table and reuses it for every SCX it creates
// (Brown, "Reuse, Don't Recycle", DISC 2017). A record's info field holds
// the word (slot, seq) of the operation that last froze it, 0 if none
// ever did; the slot's state word packs the seq it currently serves with
// that operation's state and allFrozen flag. Seqs never repeat within a
// slot, so a (slot, seq) word never recurs: that — not the lifetime of a
// descriptor's address — is what makes the freezing CAS's expected value
// and LLX's validating re-read ABA-free. A seq that has moved on names a
// DECIDED operation. Descriptors are never allocated, counted or retired.
//
// Memory orders: every access uses the weakest order that preserves the
// happens-before edge the Fig. 2/Fig. 4 proofs need, named in a comment
// at each site; -DLLXSCX_RELAXED_ORDERS=0 restores seq_cst everywhere
// (util/memorder.h) for differential testing.
//
// Every shared step is instrumented through util/stats.h so E1/E7 can
// check the paper's step counts exactly.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/memorder.h"
#include "util/stats.h"

namespace llxscx {

class DataRecordBase;

// SCX-record: the operation descriptor (paper Fig. 1), one reusable slot
// per thread; helpers find it from an info word by address arithmetic.
class alignas(64) ScxRecord {
 public:
  // V capacity. 16 covers every per-operation shape in ds/ (the widest is
  // the chromatic tree's k=5 rotations); the hash map's bucket-seal SCX
  // (freeze an ENTIRE chain in one commit, ds/hashmap_llxscx.h) is the one
  // consumer that needs headroom — its chains are capped well below this
  // by the resize trigger, and the slack absorbs concurrent inserts that
  // land between the trigger and the seal. Purely an array bound: k is a
  // runtime value, so the k+1-CAS / f+2-writes shapes are unaffected.
  static constexpr std::size_t kMaxV = 48;

  // Slot-table capacity: the most live threads that may have run an SCX.
  static constexpr std::size_t kMaxSlots = 1024;

  enum State : std::uint64_t { kInProgress = 0, kCommitted = 1, kAborted = 2 };

  // Info words: seq << kSlotBits | slot. Every operation's seq is >= 1, so
  // the word 0 names no operation ("never frozen"). 54 seq bits do not
  // wrap within any realistic run.
  static constexpr unsigned kSlotBits = 10;
  static_assert(kMaxSlots <= std::size_t{1} << kSlotBits);
  static constexpr std::uint64_t info_word(std::size_t slot,
                                           std::uint64_t seq) {
    return seq << kSlotBits | slot;
  }
  static constexpr std::uint64_t seq_of(std::uint64_t info) {
    return info >> kSlotBits;
  }
  static ScxRecord& of(std::uint64_t info);  // the slot a nonzero word names

  // State words: seq << 3 | allFrozen | State, for the seq the slot serves.
  static constexpr std::uint64_t kAllFrozen = 4;
  static constexpr std::uint64_t state_word(std::uint64_t seq,
                                            std::uint64_t bits) {
    return seq << 3 | bits;
  }

  // Slot ownership. claim() aborts, naming kMaxSlots, when every slot is
  // taken. slots_in_use() is a relaxed count for tests and reports.
  static std::size_t claim();
  static void release(std::size_t slot);
  static std::size_t slots_in_use();

  std::atomic<std::uint64_t> word_{0};

  // The operation's fields, rewritten by the owner for each SCX after it
  // moves word_ to the new seq. Atomics because a helper of the slot's
  // previous operation may still be copying them (detail_help).
  std::atomic<std::size_t> k_{0};
  std::atomic<std::uint64_t> finalize_mask_{0};  // 64-bit: indexes all of kMaxV
  std::atomic<std::atomic<std::uint64_t>*> fld_{nullptr};
  std::atomic<std::uint64_t> old_{0};
  std::atomic<std::uint64_t> new_{0};
  std::atomic<DataRecordBase*> v_[kMaxV] = {};
  std::atomic<std::uint64_t> info_fields_[kMaxV] = {};

 private:
  std::atomic<bool> claimed_{false};
};

// The slot table: zero-initialized storage, so only slots that threads
// actually claim ever touch memory.
inline constinit ScxRecord detail_scx_slots[ScxRecord::kMaxSlots];

inline ScxRecord& ScxRecord::of(std::uint64_t info) {
  return detail_scx_slots[info & ((std::uint64_t{1} << kSlotBits) - 1)];
}

inline std::size_t ScxRecord::claim() {
  for (std::size_t i = 0; i < kMaxSlots; ++i) {
    std::atomic<bool>& c = detail_scx_slots[i].claimed_;
    // acquire: the previous owner's operations (its last seq included)
    // happen-before ours, so our seqs continue past its.
    if (!c.load(std::memory_order_relaxed) &&
        !c.exchange(true, std::memory_order_acquire)) {
      return i;
    }
  }
  std::fprintf(stderr,
               "llxscx: all ScxRecord::kMaxSlots = %zu SCX descriptor slots "
               "are claimed; at most that many live threads may run SCX\n",
               kMaxSlots);
  std::abort();
}

inline void ScxRecord::release(std::size_t slot) {
  // release: pairs with claim()'s acquire (see there).
  detail_scx_slots[slot].claimed_.store(false, std::memory_order_release);
}

inline std::size_t ScxRecord::slots_in_use() {
  std::size_t n = 0;
  for (const ScxRecord& s : detail_scx_slots) {
    n += s.claimed_.load(std::memory_order_relaxed) ? 1 : 0;
  }
  return n;
}

// This thread's slot: claimed on first use, returned at thread exit.
inline std::size_t detail_my_scx_slot() {
  struct Owner {
    std::size_t slot = ScxRecord::claim();
    Owner() = default;
    Owner(const Owner&) = delete;
    Owner& operator=(const Owner&) = delete;
    ~Owner() { ScxRecord::release(slot); }
  };
  thread_local Owner owner;
  return owner.slot;
}

// Non-template base so SCX-records and helpers handle records of any width.
// The header is the paper's info word and marked bit. Two immutable tags,
// one byte and one 32-bit word, fill what would otherwise be its padding:
// the node types keep their small immutable fields there (a leaf flag, a
// chromatic weight, a Patricia bit index, a list node's kind), so the
// header stays 16 B and a node needs no padded field of its own. No SCX
// writes a tag.
class DataRecordBase {
 public:
  DataRecordBase() = default;
  DataRecordBase(std::uint8_t tag_byte, std::uint32_t tag_word)
      : tag_byte_(tag_byte), tag_word_(tag_word) {}
  DataRecordBase(const DataRecordBase&) = delete;
  DataRecordBase& operator=(const DataRecordBase&) = delete;

  std::uint8_t tag_byte() const { return tag_byte_; }
  std::uint32_t tag_word() const { return tag_word_; }

  std::atomic<std::uint64_t> info_{0};  // info word of the last freezer
  std::atomic<bool> marked_{false};

 private:
  const std::uint8_t tag_byte_ = 0;
  const std::uint32_t tag_word_ = 0;
};
static_assert(sizeof(DataRecordBase) == 16, "the tags must fit the padding");

// A Data-record with NumMut mutable fields (each one CAS-able word).
// Immutable fields live in the derived struct as plain members, or in the
// header's tags. mut() is const so read-only accessors on derived types
// can use it.
template <std::size_t NumMut>
class DataRecord : public DataRecordBase {
 public:
  static constexpr std::size_t kNumMut = NumMut;

  DataRecord() = default;
  DataRecord(std::uint8_t tag_byte, std::uint32_t tag_word)
      : DataRecordBase(tag_byte, tag_word) {}

  std::atomic<std::uint64_t>& mut(std::size_t i) const { return mut_[i]; }

 private:
  mutable std::array<std::atomic<std::uint64_t>, NumMut> mut_ = {};
};

// What an LLX leaves behind for a later SCX/VLX: the record and the info
// word witnessed in it (the paper's per-process table, made explicit).
// Plain data — the record's validity is covered by the caller's Guard,
// which must span the LLX and the SCX/VLX that consumes it. No default
// member initializers: arrays of kMaxV links (ScxOp, helpers' copies) are
// filled only up to k.
struct LinkedLlx {
  DataRecordBase* rec;
  std::uint64_t info;
};

template <std::size_t NumMut>
class LlxResult {
 public:
  enum Status { kOk, kFail, kFinalized };

  static LlxResult ok(const std::array<std::uint64_t, NumMut>& f, LinkedLlx l) {
    LlxResult r;
    r.status_ = kOk;
    r.fields_ = f;
    r.link_ = l;
    return r;
  }
  static LlxResult fail() {
    LlxResult r;
    r.status_ = kFail;
    return r;
  }
  static LlxResult finalized() {
    LlxResult r;
    r.status_ = kFinalized;
    return r;
  }

  bool ok() const { return status_ == kOk; }
  bool failed() const { return status_ == kFail; }
  bool is_finalized() const { return status_ == kFinalized; }
  std::uint64_t field(std::size_t i) const { return fields_[i]; }
  LinkedLlx link() const { return link_; }

 private:
  Status status_ = kFail;
  std::array<std::uint64_t, NumMut> fields_ = {};
  LinkedLlx link_ = {};
};

// The state of the operation an info word names, as LLX and the range
// witness read it. The word 0 names none: the record is unfrozen, which
// reads as kAborted. A seq that has moved on reads as kCommitted: the
// operation is decided, and for a record whose info still names it the
// two outcomes differ only if the record is marked — and marks are written
// only after allFrozen, so a marked record's operation committed.
inline ScxRecord::State detail_state_of(std::uint64_t info) {
  if (info == 0) return ScxRecord::kAborted;
  // acquire: a decided read makes the operation's R-set marks and update
  // visible — through its Committed store, or, once the seq has moved on,
  // through the owner's release seq bump in scx().
  const std::uint64_t w = ScxRecord::of(info).word_.load(mo::acquire);
  if (w >> 3 != ScxRecord::seq_of(info)) return ScxRecord::kCommitted;
  return static_cast<ScxRecord::State>(w & 3);
}

// Help(U) — paper Fig. 3, for U = `me` with its operation passed in: the
// creator passes its own arguments, a helper a checked copy (detail_help).
// Runs the freezing loop, then marks, updates fld, and commits. Returns
// whether U committed; only the creator uses the verdict, and only for the
// creator is it exact (a helper stops once the slot has moved past U).
//
// The creator's allFrozen and state writes are plain stores. A helper's
// are CASes conditioned on U's seq, so a helper that stalls past U's
// decision can never abort or commit the slot's next operation. (The
// creator's allFrozen store may land after a helper already committed U,
// briefly showing U in progress again; readers then help — idempotent
// once allFrozen is set — until the creator's own Committed store, which
// precedes its return.)
inline bool detail_run(ScxRecord& u, std::uint64_t me, const LinkedLlx* v,
                       std::size_t k, std::uint64_t finalize_mask,
                       std::atomic<std::uint64_t>* fld, std::uint64_t old_val,
                       std::uint64_t new_val, bool creator) {
  const std::uint64_t seq = ScxRecord::seq_of(me);
  const std::uint64_t in_progress =
      ScxRecord::state_word(seq, ScxRecord::kInProgress);
  const std::uint64_t frozen = in_progress | ScxRecord::kAllFrozen;
  const std::uint64_t committed = frozen | ScxRecord::kCommitted;
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t witnessed = v[i].info;
    Stats::count_cas();  // freezing CAS (k of the k+1)
    // acq_rel success: release publishes U's operation fields to any
    // helper that acquire-loads r.info (the help handshake — transitively
    // re-publishes them when a helper, not the creator, wins the install).
    // acquire failure: the no-false-abort edge — a displacing SCX's
    // install is itself ordered after U's decided state (its LLX
    // acquire-read that state), so the committer's allFrozen store is
    // visible to the state-word load below.
    if (v[i].rec->info_.compare_exchange_strong(witnessed, me, mo::acq_rel,
                                                mo::acquire) ||
        witnessed == me) {
      continue;  // frozen for U, by us or by another helper
    }
    // r is frozen for some other SCX. If U already has allFrozen set, a
    // helper finished freezing before r moved on, so U committed.
    Stats::count_read();
    // acquire: pairs with the committer's release allFrozen write (see
    // the failure-order comment above for why it is visible).
    const std::uint64_t now = u.word_.load(mo::acquire);
    if (now >> 3 != seq) return false;  // decided; the slot moved on
    if (now & ScxRecord::kAllFrozen) return true;
    Stats::count_write();
    // release: pairs with LLX's acquire state read — a reader that sees
    // Aborted is ordered after this failed freeze attempt.
    const std::uint64_t aborted = in_progress | ScxRecord::kAborted;
    if (creator) {
      u.word_.store(aborted, mo::release);
    } else {
      std::uint64_t e = in_progress;
      u.word_.compare_exchange_strong(e, aborted, mo::release, mo::relaxed);
    }
    return false;
  }
  Stats::count_write();
  // release: orders the k winning/witnessed freezing CASes before the flag
  // — a helper that acquire-reads it may conclude "U committed".
  if (creator) {
    u.word_.store(frozen, mo::release);
  } else {
    std::uint64_t e = in_progress;
    // relaxed failure: a decided or moved-on word just ends this helper.
    if (!u.word_.compare_exchange_strong(e, frozen, mo::release,
                                         mo::relaxed) &&
        e != frozen) {
      return e == committed;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (finalize_mask & (std::uint64_t{1} << i)) {
      Stats::count_write();
      // relaxed: the mark needs no edge of its own — it is ordered before
      // the Committed state write by that write's release, which is the
      // edge LLX's marked2 re-read consumes (Fig. 2's finalization gate).
      v[i].rec->marked_.store(true, mo::relaxed);
    }
  }
  std::uint64_t expected = old_val;
  Stats::count_cas();  // update CAS (the +1)
  // release success: publishes the fresh node's constructor writes before
  // its address becomes reachable (paired with the acquire traversal loads
  // in ds/ and LLX's acquire field loads). relaxed failure: a losing
  // helper learns nothing from fld's value.
  fld->compare_exchange_strong(expected, new_val, mo::release, mo::relaxed);
  Stats::count_write();
  // release: orders the R-set mark stores (and the update CAS) before the
  // state — LLX's acquire read of Committed therefore sees the marks
  // (the marked2 proof) and traversals that re-read fld see the update.
  if (creator) {
    u.word_.store(committed, mo::release);
  } else {
    std::uint64_t e = frozen;
    u.word_.compare_exchange_strong(e, committed, mo::release, mo::relaxed);
  }
  return true;
}

// A helper's entry to Help(U) for the operation an info word names: copy U
// out of its slot, then re-check that the slot still serves U in progress
// (seqlock shape: the owner moves word_ to its next seq BEFORE rewriting
// the fields, so a copy holding any field of a later operation fails the
// re-check). A slot that moved on means U is decided: nothing to help.
inline void detail_help(std::uint64_t info) {
  ScxRecord& u = ScxRecord::of(info);
  // acquire on every copy load: a value from a later operation's release
  // field store carries that operation's seq bump into the re-check.
  const std::size_t k = u.k_.load(mo::acquire);
  LinkedLlx v[ScxRecord::kMaxV];
  for (std::size_t i = 0; i < k; ++i) {
    v[i].rec = u.v_[i].load(mo::acquire);
    v[i].info = u.info_fields_[i].load(mo::acquire);
  }
  const std::uint64_t finalize_mask = u.finalize_mask_.load(mo::acquire);
  std::atomic<std::uint64_t>* fld = u.fld_.load(mo::acquire);
  const std::uint64_t old_val = u.old_.load(mo::acquire);
  const std::uint64_t new_val = u.new_.load(mo::acquire);
  // relaxed: the acquire loads above keep this re-read after them.
  const std::uint64_t now = u.word_.load(mo::relaxed);
  if (now >> 3 != ScxRecord::seq_of(info) ||
      (now & 3) != ScxRecord::kInProgress) {
    return;
  }
  detail_run(u, info, v, k, finalize_mask, fld, old_val, new_val,
             /*creator=*/false);
}

// LLX(r) — paper Fig. 2.
//
// Preconditions:
//   - The caller holds a reclamation Guard, and keeps holding it
//     (reentrant nesting is fine) until after any SCX/VLX that consumes
//     the returned link. The guard is what keeps r alive across that
//     window.
//   - r was reached through the structure under that same guard (root,
//     or loaded from a field/LLX snapshot of a record so reached). A
//     pointer cached from before the guard began may already be freed.
//
// Returns one of:
//   - ok:        a consistent snapshot of r's mutable fields plus the
//                link a same-thread SCX/VLX needs. ok means r was not
//                finalized at the linearization point — it does NOT mean
//                r is still reachable by the time you act on it; SCX's
//                V-set check is what turns the link into an atomicity
//                guarantee.
//   - fail:      r was (or became) frozen for a concurrent SCX; this call
//                helped it along. Retry from a consistent point.
//   - finalized: r was removed by a committed SCX and will never be
//                mutable again. Callers should re-locate, not retry on r.
template <std::size_t NumMut>
LlxResult<NumMut> llx(const DataRecord<NumMut>* r) {
  Stats::llx_call();
  Stats::count_read(4);
  // acquire: keeps the info/state reads below ordered after this read —
  // the FINALIZED verdict depends on marked1 preceding the rinfo read.
  const bool marked1 = r->marked_.load(mo::acquire);
  // acquire: pairs with the freezing CAS's release install, so the slot's
  // seq bump for that operation is visible to the state read below; it
  // also opens the snapshot window (the field reads cannot move before it).
  const std::uint64_t rinfo = r->info_.load(mo::acquire);
  const ScxRecord::State state = detail_state_of(rinfo);
  // Paper Fig. 2 reads the mark a SECOND time, after the state read, and
  // gates the snapshot on it. The re-read is load-bearing: Help() writes
  // the R-set marks after allFrozen but before state:=Committed, so a
  // single early mark read could see false, then observe Committed, and
  // hand out a snapshot of a record that is already finalized. A later
  // SCX could then re-freeze that finalized record (its info field never
  // changes again) and commit a change hanging off a removed subtree —
  // e.g. double-retiring a node a tree delete already retired.
  // relaxed: ordered after the state read by its acquire; visibility of
  // the marks comes from the state write's release (previous comment).
  const bool marked2 = r->marked_.load(mo::relaxed);

  if (state == ScxRecord::kAborted ||
      (state == ScxRecord::kCommitted && !marked2)) {
    // r was unfrozen at the read of state: snapshot the mutable fields and
    // confirm no SCX intervened.
    std::array<std::uint64_t, NumMut> f;
    for (std::size_t i = 0; i < NumMut; ++i) {
      // acquire, twice over: (a) a snapshotted pointer may be dereferenced
      // by the caller, so the committing SCX's release update-CAS must
      // publish the pointee's constructor writes to us; (b) each acquire
      // pins the validating info re-read below AFTER this field read
      // (seqlock shape: the re-read must close the window, not open it).
      f[i] = r->mut(i).load(mo::acquire);
    }
    Stats::count_read(NumMut + 1);
    // relaxed: the acquire field loads above keep this re-read last; info
    // equality over the window proves no freeze (hence no field write)
    // intervened — info words never recur, so equality is change
    // detection, not ABA roulette.
    if (r->info_.load(mo::relaxed) == rinfo) {
      return LlxResult<NumMut>::ok(
          f, LinkedLlx{const_cast<DataRecord<NumMut>*>(r), rinfo});
    }
  }

  // r is (or was) frozen. If its freezer finalized it, report FINALIZED;
  // otherwise help whoever holds it and report FAIL. FINALIZED uses the
  // FIRST mark read (Fig. 2 line 8): marks are written only after
  // allFrozen, so marked1 means a committed SCX finalized r — rinfo names
  // it (a finalized record's info never changes again), and helping it
  // first completes its update. The marked1-false/marked2-true race
  // therefore reports FAIL, and the caller's retry sees FINALIZED.
  if (state == ScxRecord::kInProgress) {
    Stats::helped();
    detail_help(rinfo);
  }
  if (marked1) return LlxResult<NumMut>::finalized();

  // acquire ×2: same install/decide edges as above — the helper must see
  // the current freezer's seq bump before running Help on it.
  const std::uint64_t cur = r->info_.load(mo::acquire);
  Stats::count_read(2);
  if (detail_state_of(cur) == ScxRecord::kInProgress) {
    Stats::helped();
    detail_help(cur);
  }
  Stats::llx_failed();
  return LlxResult<NumMut>::fail();
}

// SCX(V, R, fld, new) — paper Fig. 3. Commits iff no record in V changed
// since this thread's LLX of it; on commit, writes `new_val` into fld and
// finalizes the records selected by `finalize_mask`. A false return wrote
// nothing (any freezes it won were undone by helpers observing the abort).
//
// Preconditions (the paper's §3 constraints plus this repo's memory rules):
//   - v[0..k) are links from THIS thread's LLXs, all taken and still
//     covered by the current Guard.
//   - fld is a mutable field of some record in V, and `old_val` is that
//     field's value FROM THE LLX SNAPSHOT — not from a later plain read.
//     (SCX success is defined by V-set stability; if old_val is stale the
//     update CAS silently misses and the commit still reports true.)
//   - Usage assumption (value ABA): `new_val` must never have appeared in
//     fld before. Every structure here satisfies it by only installing
//     pointers to nodes allocated within the current operation — see the
//     fresh-node discipline in ds/ and DESIGN.md §6/§8.
//   - Records in R stay permanently frozen; only the committing thread
//     may retire them (plus nodes made unreachable by the commit), through
//     its structure's Reclaim::retire, after scx returns true. Exactly
//     once is the structure's obligation: its SCX shapes must guarantee
//     no two committed operations remove the same node (every conflicting
//     pair shares a V-record that the first commit freezes or finalizes).
inline bool scx(const LinkedLlx* v, std::size_t k, std::uint64_t finalize_mask,
                std::atomic<std::uint64_t>* fld, std::uint64_t old_val,
                std::uint64_t new_val) {
  assert(k >= 1 && k <= ScxRecord::kMaxV);
  Stats::scx_call();
  const std::size_t slot = detail_my_scx_slot();
  ScxRecord& u = detail_scx_slots[slot];
  // relaxed: only the owner moves its slot's seq (a previous owner's
  // reached us through claim()'s acquire), and helpers' CASes keep it.
  const std::uint64_t seq = (u.word_.load(mo::relaxed) >> 3) + 1;
  // release: this slot's previous operation is decided and complete
  // (marks, update CAS) before its seq moves on, so a reader that
  // acquire-reads the new seq and judges that operation decided
  // (detail_state_of) also sees its marks.
  u.word_.store(ScxRecord::state_word(seq, ScxRecord::kInProgress),
                mo::release);
  // release ×(2k+5): the seqlock writer side — each store keeps the seq
  // bump above ordered before it, so a stale helper that copies any of
  // these values fails its re-check. The first freezing CAS publishes
  // them to helpers of this operation.
  u.k_.store(k, mo::release);
  u.finalize_mask_.store(finalize_mask, mo::release);
  u.fld_.store(fld, mo::release);
  u.old_.store(old_val, mo::release);
  u.new_.store(new_val, mo::release);
  for (std::size_t i = 0; i < k; ++i) {
    u.v_[i].store(v[i].rec, mo::release);
    u.info_fields_[i].store(v[i].info, mo::release);
  }
  const bool ok = detail_run(u, ScxRecord::info_word(slot, seq), v, k,
                             finalize_mask, fld, old_val, new_val,
                             /*creator=*/true);
  if (!ok) Stats::scx_failed();
  return ok;
}

// VLX(V) — k shared reads (claim C-C): each record is unchanged since its
// LLX iff its info field still holds the linked word. Same preconditions
// as scx(): same-thread links, one continuous Guard.
inline bool vlx(const LinkedLlx* v, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    Stats::count_read();
    // acquire: an unchanged verdict may be acted on by dereferencing the
    // snapshot, so it must carry the same install edge as LLX's info
    // loads. (Reordering among the k loads is harmless: "unchanged" is
    // monotone — once an info field moves on it never returns — so every
    // load certifying [llx_i, read_i] certifies the earliest read time.)
    if (v[i].rec->info_.load(mo::acquire) != v[i].info) {
      return false;
    }
  }
  return true;
}

}  // namespace llxscx
