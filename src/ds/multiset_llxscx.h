// The paper's Fig. 6 multiset: a sorted singly-linked list of
// ⟨key, count⟩ Data-records built directly on LLX/SCX.
//
// SCX carries a usage assumption (§3): the value passed as `new` must
// never have appeared in `fld` before — otherwise a stalled helper's late
// update CAS could re-succeed after the field has moved on and back
// (value ABA). Under the paper's garbage collector that is free: every
// `new` is a freshly allocated node. This implementation keeps the same
// discipline explicitly:
//
//   - a node's key and count are immutable; changing a count REPLACES the
//     node (finalizing the old one),
//   - removing a node also replaces its successor with a fresh copy (the
//     k=3 "full-delete shape" E1 measures), so the successor's address is
//     never written back into pred.next,
//   - the list ends in a tail sentinel node (never null), so an empty
//     position is also represented by a fresh address.
//
// Every SCX therefore installs a pointer to a node allocated within the
// current operation; the Reclaim policy (reclaim/record_manager.h) keeps
// such an address from being recycled while any thread that could help
// the SCX holds a guard. The discipline is enforced through the ScxOp
// builder (llxscx/scx_op.h): fresh nodes come from freshly(), `old`
// always from the captured LLX snapshot, and the builder retires the
// R-set exactly once on commit — through the same policy, so the E8
// no-free ablation is just `BasicLlxScxMultiset<LeakyManager>` (the old
// hand-rolled Leaky variant is gone).
//
// Shapes (DESIGN.md §6):
//   insert, key absent   — SCX(V=⟨pred⟩,            R=∅,          pred.next ← n)
//   insert, key present  — SCX(V=⟨pred,cur⟩,        R=⟨cur⟩,      pred.next ← n′)
//   erase, partial count — SCX(V=⟨pred,cur⟩,        R=⟨cur⟩,      pred.next ← n′)
//   erase, full count    — SCX(V=⟨pred,cur,succ⟩,   R=⟨cur,succ⟩, pred.next ← succ′)
//
// Get traverses with plain reads (Proposition 2, §4.3);
// get_llx_traversal is the deliberately-expensive variant E5 compares
// against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "llxscx/llx_scx.h"
#include "llxscx/scx_op.h"
#include "reclaim/record_manager.h"
#include "util/memorder.h"

namespace llxscx {

struct MultisetNode : DataRecord<1> {
  static constexpr std::size_t kNext = 0;

  struct TailTag {};

  MultisetNode(std::uint64_t k, std::uint64_t c, MultisetNode* n)
      : key(k), count(c), tail(false) {
    mut(kNext).store(reinterpret_cast<std::uint64_t>(n),
                     std::memory_order_relaxed);
  }
  explicit MultisetNode(TailTag) : key(0), count(0), tail(true) {}

  const std::uint64_t key;
  const std::uint64_t count;
  const bool tail;  // end-of-list sentinel (compares greater than any key)
};

template <class Reclaim = EbrManager>
class BasicLlxScxMultiset {
 public:
  using Node = MultisetNode;
  static constexpr const char* kName = "llxscx-multiset";

  BasicLlxScxMultiset() {
    head_.mut(Node::kNext).store(
        reinterpret_cast<std::uint64_t>(
            Reclaim::template alloc<Node>(Node::TailTag{})),
        std::memory_order_relaxed);
  }
  ~BasicLlxScxMultiset() {
    // Quiescent teardown; removed-but-unreclaimed nodes are the policy's
    // (or, for the leaky policy, nobody's).
    Node* cur = next_of(&head_);
    while (cur != nullptr) {
      Node* next = cur->tail ? nullptr : next_of(cur);
      Reclaim::dealloc(cur);
      cur = next;
    }
  }
  BasicLlxScxMultiset(const BasicLlxScxMultiset&) = delete;
  BasicLlxScxMultiset& operator=(const BasicLlxScxMultiset&) = delete;

  bool insert(std::uint64_t key, std::uint64_t count = 1) {
    Epoch::Guard g;
    for (;;) {
      Node* pred = locate(key);
      auto lp = llx(pred);
      if (!lp.ok()) continue;
      Node* cur = to_node(lp.field(Node::kNext));
      if (!cur->tail && cur->key < key) continue;  // stale position
      if (!cur->tail && cur->key == key) {
        auto lc = llx(cur);
        if (!lc.ok()) continue;
        ScxOp<Node, Reclaim> op;
        op.link(lp);
        op.remove(lc);
        auto repl = op.freshly(key, cur->count + count,
                               to_node(lc.field(Node::kNext)));
        op.write(pred, Node::kNext, repl);
        if (op.commit()) return true;
      } else {
        ScxOp<Node, Reclaim> op;
        op.link(lp);
        auto n = op.freshly(key, count, cur);
        op.write(pred, Node::kNext, n);
        if (op.commit()) return true;
      }
    }
  }

  // Container-contract face (DESIGN.md §9): remove ONE copy of key; true
  // iff something was removed. The counted form below is the full API —
  // no default argument there, so the two faces never collide.
  bool erase(std::uint64_t key) { return erase(key, 1) != 0; }

  // Removes up to `count` copies of key; returns how many were removed.
  std::uint64_t erase(std::uint64_t key, std::uint64_t count) {
    Epoch::Guard g;
    for (;;) {
      Node* pred = locate(key);
      auto lp = llx(pred);
      if (!lp.ok()) continue;
      Node* cur = to_node(lp.field(Node::kNext));
      if (!cur->tail && cur->key < key) continue;
      if (cur->tail || cur->key != key) return 0;
      auto lc = llx(cur);
      if (!lc.ok()) continue;
      if (cur->count > count) {
        ScxOp<Node, Reclaim> op;
        op.link(lp);
        op.remove(lc);
        auto repl = op.freshly(key, cur->count - count,
                               to_node(lc.field(Node::kNext)));
        op.write(pred, Node::kNext, repl);
        if (op.commit()) return count;
      } else {
        // Full removal: the k=3 shape. The successor is finalized too and
        // replaced by a fresh copy, so pred.next receives a value it has
        // never held (see header comment).
        Node* succ = to_node(lc.field(Node::kNext));
        auto ls = llx(succ);
        if (!ls.ok()) continue;
        const std::uint64_t removed = cur->count;
        ScxOp<Node, Reclaim> op;
        op.link(lp);
        op.remove(lc);
        op.remove(ls);
        auto repl = succ->tail ? op.freshly(Node::TailTag{})
                               : op.freshly(succ->key, succ->count,
                                            to_node(ls.field(Node::kNext)));
        op.write(pred, Node::kNext, repl);
        if (op.commit()) return removed;
      }
    }
  }

  bool delete_one(std::uint64_t key) { return erase(key, 1) != 0; }

  // Membership by key (container contract): any copy present?
  bool contains(std::uint64_t key) const { return get(key) != 0; }

  // Element count — the sum of multiplicities — by plain-read traversal.
  // Exact when quiescent (container contract); holds one guard across the
  // walk, same caveat as the tree size() (a list has no stable spine to
  // re-enter a guard per segment).
  std::size_t size() const {
    Epoch::Guard g;
    std::size_t total = 0;
    for (const Node* cur = next_of(&head_); !cur->tail; cur = next_of(cur)) {
      total += cur->count;
    }
    return total;
  }

  // Multiplicity of key, traversing with plain reads (Proposition 2).
  std::uint64_t get(std::uint64_t key) const {
    Epoch::Guard g;
    const Node* cur = next_of(&head_);
    while (!cur->tail && cur->key < key) cur = next_of(cur);
    return (!cur->tail && cur->key == key) ? cur->count : 0;
  }

  // The E5 strawman: the same search but LLX-ing every node on the path,
  // restarting whenever a node is frozen or finalized underfoot.
  std::uint64_t get_llx_traversal(std::uint64_t key) const {
    Epoch::Guard g;
    for (;;) {
      auto lh = llx(&head_);
      if (!lh.ok()) continue;
      const Node* cur = to_node(lh.field(Node::kNext));
      bool restart = false;
      while (!cur->tail) {
        auto lc = llx(cur);
        if (!lc.ok()) {
          restart = true;
          break;
        }
        if (cur->key >= key) return cur->key == key ? cur->count : 0;
        cur = to_node(lc.field(Node::kNext));
      }
      if (!restart) return 0;
    }
  }

  // Ordered ⟨key, count⟩ snapshot. Quiescent callers only (tests).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const Node* cur = next_of(&head_); !cur->tail; cur = next_of(cur)) {
      out.emplace_back(cur->key, cur->count);
    }
    return out;
  }

  // Ordered range scan (DESIGN.md §15): appends every ⟨key, count⟩ with
  // lo ≤ key ≤ hi in ascending order, returns how many were appended.
  // The list is sorted, so this is the plain-read get() walk extended to
  // an interval — guard-protected and memory-safe under concurrency,
  // per-element linearizable like get() (a range is not a snapshot here;
  // the trees' VLX-validated range is the snapshot-strength one).
  std::size_t range(
      std::uint64_t lo, std::uint64_t hi,
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
    Epoch::Guard g;
    const std::size_t base = out.size();
    const Node* cur = next_of(&head_);
    while (!cur->tail && cur->key < lo) cur = next_of(cur);
    while (!cur->tail && cur->key <= hi) {
      out.emplace_back(cur->key, cur->count);
      cur = next_of(cur);
    }
    return out.size() - base;
  }

 private:
  static Node* to_node(std::uint64_t w) { return reinterpret_cast<Node*>(w); }
  static Node* next_of(const Node* n) {
    Stats::count_read();
    // acquire: pairs with the committing SCX's release update-CAS — a
    // node's immutable fields are visible before its address is reachable.
    return to_node(n->mut(Node::kNext).load(mo::acquire));
  }

  // Plain-read search for the last node with key' < key (possibly the
  // sentinel head). The caller re-derives the successor from its LLX of
  // the returned node and revalidates the position.
  Node* locate(std::uint64_t key) const {
    const Node* pred = &head_;
    const Node* cur = next_of(pred);
    while (!cur->tail && cur->key < key) {
      pred = cur;
      cur = next_of(cur);
    }
    return const_cast<Node*>(pred);
  }

  // Head sentinel; its key/count are never compared. The list always ends
  // in a tail-flagged node, so next pointers on the search path are never
  // null.
  Node head_{0, 0, nullptr};
};

using LlxScxMultiset = BasicLlxScxMultiset<EbrManager>;

}  // namespace llxscx
