// The list engine: one node type and the paper's Fig. 6 update shapes for
// every structure built on a singly linked chain of immutable ⟨key, value⟩
// Data-records — the multiset (multiset_llxscx.h), the hash map's bucket
// chains (hashmap_llxscx.h) and the stack (stack_llxscx.h) update through
// it; the queue (queue_llxscx.h) shares the node, the walks and teardown.
//
// A chain is head sentinel → items… → tail sentinel. Every record has one
// mutable field, next; key, value and kind are immutable. SCX carries a
// usage assumption (§3 of the paper): the value passed as `new` must never
// have appeared in `fld` before — otherwise a stalled helper's late update
// CAS could re-succeed after the field has moved on and back (value ABA).
// Under the paper's garbage collector that is free: every `new` is a
// freshly allocated node. The engine keeps the same discipline explicitly:
//
//   - a node's key and value are immutable; changing a value REPLACES the
//     node (finalizing the old one),
//   - removing a node also replaces its successor with a fresh copy, so the
//     successor's address is never written back into pred.next,
//   - a chain ends in a tail sentinel (never null), so an empty position
//     is also represented by a fresh address.
//
// Every SCX therefore installs a node allocated by the current operation
// (ScxOp's freshly()); the Reclaim policy (reclaim/record_manager.h) keeps
// such an address from being recycled while any thread that could help the
// SCX holds a guard.
//
// The three shapes (DESIGN.md §6), at a pinned position: pred is LLXed and
// cur is pred's next as that snapshot saw it (pin()).
//   insert_before(s, k, v) — SCX(V=⟨pred⟩,          R=∅,          pred.next ← n)     k=1
//   replace(s, v)          — SCX(V=⟨pred,cur⟩,      R=⟨cur⟩,      pred.next ← n′)    k=2
//   remove(s)              — SCX(V=⟨pred,cur,succ⟩, R=⟨cur,succ⟩, pred.next ← succ′) k=3
// Each returns whether its SCX committed; false (an LLX or the SCX failed)
// means re-walk and retry. Reads walk with plain acquire loads
// (Proposition 2): walk_to() for a position, walk_items() for the items.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "llxscx/llx_scx.h"
#include "llxscx/scx_op.h"
#include "reclaim/record_manager.h"
#include "util/memorder.h"

namespace llxscx {

struct ListNode : DataRecord<1> {
  static constexpr std::size_t kNext = 0;

  // kItem  — a ⟨key, value⟩ element (and a head sentinel, never compared).
  // kTail  — the end-of-chain sentinel.
  // kMoved, kDone — the hash map's bucket-migration markers: a sealed
  //          bucket's head.next, and what the finish SCX points it at.
  enum Kind : std::uint8_t { kItem = 0, kTail = 1, kMoved = 2, kDone = 3 };

  // The kind lives in the header's tag byte.
  ListNode(std::uint64_t k, std::uint64_t v, ListNode* n, Kind kd = kItem)
      : DataRecord(kd, 0), key(k), value(v) {
    mut(kNext).store(reinterpret_cast<std::uint64_t>(n),
                     std::memory_order_relaxed);
  }
  explicit ListNode(Kind kd, ListNode* n = nullptr) : ListNode(0, 0, n, kd) {}

  Kind kind() const { return static_cast<Kind>(tag_byte()); }
  bool item() const { return kind() == kItem; }

  const std::uint64_t key;
  const std::uint64_t value;
};
// ⟨header, next, key, value⟩: a 48-byte malloc chunk (size class 1).
static_assert(sizeof(ListNode) == 40);
static_assert(EbrManager::size_class_of(sizeof(ListNode)) == 1);

// One chain's head sentinel plus the engine's operations. The multiset,
// stack and queue each own one List; the hash map owns no List and runs
// the static operations on its bucket heads.
template <class Reclaim = EbrManager>
class List {
 public:
  using Node = ListNode;

  // An update position: pred's LLX snapshot, and cur as it saw pred.next.
  struct Slot {
    LlxResult<Node::kNumMut> lp;
    Node* pred;
    Node* cur;
  };
  // A plain-read walk's result: cur is the first node that is not an item
  // below the key, pred the node before it; walked counts items passed.
  struct Position {
    Node* pred;
    Node* cur;
    std::size_t walked;
  };

  List() {
    head_.mut(Node::kNext).store(
        reinterpret_cast<std::uint64_t>(
            Reclaim::template alloc<Node>(Node::kTail)),
        std::memory_order_relaxed);
  }
  // Quiescent teardown; removed-but-unreclaimed nodes are the policy's.
  ~List() { free_chain(next_of(&head_)); }
  List(const List&) = delete;
  List& operator=(const List&) = delete;

  Node* head() const { return &head_; }

  // Guarded whole-chain reads, in chain order. Safe under concurrent
  // updates; exact when quiescent.
  std::size_t size() const {
    Epoch::Guard g;
    std::size_t n = 0;
    walk_items(next_of(&head_), [&](const Node*) {
      ++n;
      return true;
    });
    return n;
  }
  bool contains(std::uint64_t key) const {
    Epoch::Guard g;
    return walk_items(next_of(&head_),
                      [&](const Node* n) { return n->key != key; })
        ->item();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    Epoch::Guard g;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    walk_items(next_of(&head_), [&](const Node* n) {
      out.emplace_back(n->key, n->value);
      return true;
    });
    return out;
  }

  static Node* to_node(std::uint64_t w) { return reinterpret_cast<Node*>(w); }
  static Node* next_of(const Node* n) {
    Stats::count_read();
    // acquire: pairs with the committing SCX's release update-CAS — a
    // node's immutable fields are visible before its address is reachable.
    return to_node(n->mut(Node::kNext).load(mo::acquire));
  }

  // Plain-read walk from head to key's position in a sorted chain.
  static Position walk_to(Node* head, std::uint64_t key) {
    Position p{head, next_of(head), 0};
    for (; p.cur->item() && p.cur->key < key; ++p.walked) {
      p.pred = p.cur;
      p.cur = next_of(p.cur);
    }
    return p;
  }

  // LLX pred and re-read cur from the snapshot: nullopt when the LLX
  // failed or the position went stale (an item below key was inserted
  // after pred). key 0 skips the staleness test: an unsorted chain (the
  // stack) pins its head.
  static std::optional<Slot> pin(Node* pred, std::uint64_t key = 0) {
    auto lp = llx(pred);
    if (!lp.ok()) return std::nullopt;
    Node* cur = to_node(lp.field(Node::kNext));
    if (cur->item() && cur->key < key) return std::nullopt;
    return Slot{lp, pred, cur};
  }

  // k=1: link a fresh ⟨key, value⟩ between pred and cur.
  static bool insert_before(const Slot& s, std::uint64_t key,
                            std::uint64_t value) {
    ScxOp<Node, Reclaim> op;
    op.link(s.lp);
    op.write(s.pred, Node::kNext, op.freshly(key, value, s.cur));
    return op.commit();
  }

  // k=2: replace cur by a fresh ⟨cur.key, value⟩ (a value change).
  static bool replace(const Slot& s, std::uint64_t value) {
    auto lc = llx(s.cur);
    if (!lc.ok()) return false;
    ScxOp<Node, Reclaim> op;
    op.link(s.lp);
    op.remove(lc);
    op.write(s.pred, Node::kNext,
             op.freshly(s.cur->key, value, to_node(lc.field(Node::kNext))));
    return op.commit();
  }

  // k=3: unlink cur. Its successor is finalized too and replaced by a
  // fresh copy (or a fresh tail), so pred.next receives a value it has
  // never held.
  static bool remove(const Slot& s) {
    auto lc = llx(s.cur);
    if (!lc.ok()) return false;
    Node* succ = to_node(lc.field(Node::kNext));
    auto ls = llx(succ);
    if (!ls.ok()) return false;
    ScxOp<Node, Reclaim> op;
    op.link(s.lp);
    op.remove(lc);
    op.remove(ls);
    auto repl = succ->item() ? op.freshly(succ->key, succ->value,
                                          to_node(ls.field(Node::kNext)))
                             : op.freshly(Node::kTail);
    op.write(s.pred, Node::kNext, repl);
    return op.commit();
  }

  // The item walk: visit(n) on each item from n on, until visit returns
  // false or the items end. Returns the node it stopped at — the item
  // visit refused, or the first node that is not an item.
  template <class Visit>
  static const Node* walk_items(const Node* n, Visit visit) {
    while (n->item() && visit(n)) n = next_of(n);
    return n;
  }

  // Dispose of n and every node after it through the chain's end (a tail
  // or done marker), reading each next before disposing: dealloc at a
  // quiescent teardown, Reclaim::retire for a chain a commit unlinked.
  static void free_chain(Node* n, void (*dispose)(Node*) =
                                      &Reclaim::template dealloc<Node>) {
    while (n != nullptr) {
      Node* next = n->kind() == Node::kTail || n->kind() == Node::kDone
                       ? nullptr
                       : next_of(n);
      dispose(n);
      n = next;
    }
  }

 private:
  // mutable: head.next is shared memory that SCXs change; const readers
  // walk and LLX from it all the same.
  mutable Node head_{0, 0, nullptr};
};

}  // namespace llxscx
