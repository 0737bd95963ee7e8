// FIFO queue on LLX/SCX (E9): a two-sentinel singly linked list driven
// through the ScxOp builder, with k=2 enqueue and k=2 dequeue shapes and
// an amortized tail hint that makes enqueue O(1) on the steady state.
// The node, the whole-list walks and teardown are the list engine's
// (list_llxscx.h); neither update is one of its shapes, so both are
// written here.
//
// Structure: head sentinel Data-record (single mutable field: the first
// element) → immutable ⟨key, value⟩ nodes → tail sentinel. Enqueue
// REPLACES the tail sentinel (finalizing it) with the new node, which
// carries a fresh tail sentinel behind it; dequeue unlinks the first node
// by handing its snapshot successor into head.next.
//
// Shapes (DESIGN.md §9):
//   enqueue — SCX(V=⟨last, tail⟩,  R=⟨tail⟩,  last.next ← n(→ tail′))
//             k=2 ⇒ 3 CAS + 1 hint-publish CAS, f=1 ⇒ 3 writes,
//             2 allocs (n + tail′)
//   dequeue — SCX(V=⟨head, first⟩, R=⟨first⟩, head.next ← first.next)
//             k=2 ⇒ 3 CAS, f=1 ⇒ 3 writes + 1 hint-invalidate write,
//             0 allocs
//
// Dequeue is the repo's one write_handoff() user: it installs an EXISTING
// address (first's snapshot successor) instead of a fresh copy. The §3
// usage assumption still holds — head.next never repeats a value — by
// structure: a node enters head.next either when enqueued into an empty
// queue (it is fresh) or when its unique predecessor is dequeued (the
// handoff finalizes that predecessor, so it happens at most once), and
// the reclamation policy keeps retired addresses from recurring while
// helpers hold guards. Every other field only ever receives freshly()-
// minted nodes. Copying the successor instead (as the stack must, because
// pushed nodes DO revisit head.top) would cost k=3; the queue's one-way
// flow is what buys the cheaper shape.
//
// The tail hint (ROADMAP's O(length)-enqueue item). hint_ is a single
// atomic word: 0 = empty, even = a Node* some enqueue published after
// committing, odd = a process-unique invalidation stamp. A naive hint
// would dangle into reclaimed nodes; this one is governed by three rules
// that make every dereference provably safe:
//
//   1. PUBLISH by CAS, expected = the hint value read at the START of the
//      op (before the node existed), exactly once, after commit. A stalled
//      enqueuer can therefore never install its node after that node has
//      been dequeued: the dequeuer's stamp (rule 2) lands in hint_'s
//      modification order between the read and the late CAS, every value
//      written to hint_ is unique (fresh addresses — see rule 3 — or
//      fresh stamps), so the expected value cannot recur and the CAS
//      fails.
//   2. INVALIDATE before retire: each dequeue attempt stores a fresh odd
//      stamp before its SCX can commit (and hence before the builder
//      retires the removed node). With rule 1 this yields the invariant:
//      a pointer read from hint_ is a node that was NOT YET RETIRED at
//      the moment of the read — so a reader holding a Guard may
//      dereference it (LLX it) even if it has since been dequeued.
//   3. VALIDATE by LLX before trusting: the enqueuer LLXes the hint node.
//      FAIL/FINALIZED ⇒ fall back to walking from the head sentinel. OK
//      ⇒ the node was still un-dequeued at the LLX, hence every node
//      after it is also un-dequeued at that instant, hence their retires
//      all postdate this thread's guard and the forward walk is safe.
//      (Walking forward from a hint that was merely unretired would NOT
//      be safe: nodes dequeued AFTER the hint node but BEFORE our guard
//      began could already be freed. The LLX is what rules that out.)
//
// Uniqueness of stamps uses a thread id + per-thread counter (no shared
// steps); pointers are even, stamps odd, so the two can never collide.
// Under dequeue traffic the hint is perpetually stamped out and enqueue
// degrades to the original full walk; in enqueue bursts — exactly when
// the queue grows long and the walk would hurt — each enqueue starts from
// the previous one's node, making the walk amortized O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/list_llxscx.h"

namespace llxscx {

template <class Reclaim = EbrManager>
class BasicLlxScxQueue {
  using L = List<Reclaim>;

 public:
  using Node = ListNode;
  static constexpr const char* kName = "llxscx-queue";

  bool enqueue(std::uint64_t key, std::uint64_t value) {
    Epoch::Guard g;
    for (;;) {
      Stats::count_read();
      // acquire: a pointer value reads-from a publish CAS (release), which
      // carries the pointee's construction — safe to LLX below.
      const std::uint64_t h0 = hint_.load(mo::acquire);
      Node* start = list_.head();
      LlxResult<1> lstart = LlxResult<1>::fail();
      if (h0 != 0 && (h0 & 1) == 0) {
        // Hint rule 3: LLX before trusting. Memory-safe by rule 2 (the
        // pointer was unretired at the load, and our guard predates any
        // later retire of it).
        lstart = llx(L::to_node(h0));
        if (lstart.ok()) start = L::to_node(h0);
        // FAIL/FINALIZED: stale hint — fall back to the head walk.
      }
      // Walk to the last edge: the node whose next is the tail sentinel.
      Node* last = start;
      for (Node* c = lstart.ok() ? L::to_node(lstart.field(Node::kNext))
                                 : L::next_of(last);
           c->item(); c = L::next_of(c)) {
        last = c;
      }
      auto ll = (last == start && lstart.ok()) ? lstart : llx(last);
      if (!ll.ok()) continue;
      Node* t = L::to_node(ll.field(Node::kNext));
      if (t->item()) continue;  // an enqueue slipped in behind us: re-walk
      auto lt = llx(t);
      if (!lt.ok()) continue;
      ScxOp<Node, Reclaim> op;
      op.link(ll);
      op.remove(lt);  // the old tail sentinel is consumed by this enqueue
      auto fresh_tail = op.freshly(Node::kTail);
      auto n = op.freshly(key, value, fresh_tail.get());
      op.write(last, Node::kNext, n);
      if (op.commit()) {
        // Hint rule 1: one-shot publish, expected = the value read before
        // n existed. release: the pointee's visibility edge for readers.
        std::uint64_t expected = h0;
        Stats::count_cas();
        hint_.compare_exchange_strong(
            expected, reinterpret_cast<std::uint64_t>(n.get()), mo::release,
            mo::relaxed);
        return true;
      }
    }
  }
  bool enqueue(std::uint64_t v) { return enqueue(v, v); }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> dequeue() {
    Epoch::Guard g;
    for (;;) {
      auto lh = llx(list_.head());
      if (!lh.ok()) continue;
      Node* first = L::to_node(lh.field(Node::kNext));
      if (!first->item()) return std::nullopt;
      auto lf = llx(first);
      if (!lf.ok()) continue;
      const std::uint64_t k = first->key;
      const std::uint64_t v = first->value;
      // Hint rule 2: stamp the hint BEFORE the commit that retires
      // `first` can happen (the builder retires inside commit()). A
      // failed attempt stamps spuriously — harmless, the hint is only an
      // accelerator. release: orders the stamp before this thread's
      // subsequent retire-visible effects on the coherence order of
      // hint_ (the rule-1 proof consumes it).
      Stats::count_write();
      hint_.store(fresh_hint_stamp(), mo::release);
      ScxOp<Node, Reclaim> op;
      op.link(lh);
      op.remove(lf);
      // Value-uniqueness argued in the header: first's successor has never
      // been in head.next, and this handoff (which finalizes first) is the
      // only op that can ever put it there.
      op.write_handoff(list_.head(), Node::kNext, first, Node::kNext);
      if (op.commit()) return std::make_pair(k, v);
    }
  }

  // Unified container interface (DESIGN.md §9). erase() is the queue's
  // structural removal — it dequeues the FRONT element and ignores the
  // key (FIFO containers remove by position, not by key).
  bool insert(std::uint64_t key, std::uint64_t value) {
    return enqueue(key, value);
  }
  bool erase(std::uint64_t /*key*/) { return dequeue().has_value(); }

  // Guarded walks from the front (the engine's), safe under concurrent
  // enqueue/dequeue; exact when quiescent. items() is front-to-back, the
  // scan verbs' fallback (container_api.h).
  bool contains(std::uint64_t key) const { return list_.contains(key); }
  std::size_t size() const { return list_.size(); }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    return list_.items();
  }

 private:
  // Process-unique odd stamp: threads draw blocks of 2^20 consecutive
  // values from a shared counter — one uncontended fetch_add per million
  // stamps, no per-dequeue shared step — so uniqueness holds
  // unconditionally for the process lifetime (2^62 values total, out of
  // reach), which is the premise hint rule 1's proof stands on.
  static std::uint64_t fresh_hint_stamp() {
    constexpr std::uint64_t kBlock = std::uint64_t{1} << 20;
    static std::atomic<std::uint64_t> next_block{0};
    thread_local std::uint64_t cur = 0;
    thread_local std::uint64_t end = 0;
    if (cur == end) {
      cur = next_block.fetch_add(kBlock, std::memory_order_relaxed);
      end = cur + kBlock;
    }
    return (cur++ << 1) | 1;
  }

  // Head sentinel: its single mutable field points at the front element.
  L list_;
  // The amortized tail hint (header comment): 0 / Node* (even) / stamp
  // (odd). Strictly an accelerator — correctness never depends on it
  // being current, only the three rules above on how it is written/read.
  std::atomic<std::uint64_t> hint_{0};
};

using LlxScxQueue = BasicLlxScxQueue<EbrManager>;

}  // namespace llxscx
