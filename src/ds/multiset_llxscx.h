// The paper's Fig. 6 multiset: a sorted singly-linked list of
// ⟨key, count⟩ Data-records built directly on LLX/SCX, through the list
// engine (list_llxscx.h), which keeps a node's count in its `value`.
//
// The engine owns the node, the walks and the three SCX shapes, and with
// them the paper's usage assumption (fresh `new` values: a count change
// replaces the node, a full removal replaces the successor with a fresh
// copy, the list ends in a tail sentinel). The ScxOp builder retires the
// R-set exactly once on commit through the Reclaim policy, so the E8
// no-free ablation is just `BasicLlxScxMultiset<LeakyManager>`.
//
// Shapes (DESIGN.md §6):
//   insert, key absent   — insert_before: SCX(V=⟨pred⟩,          R=∅)
//   insert, key present  — replace:       SCX(V=⟨pred,cur⟩,      R=⟨cur⟩)
//   erase, partial count — replace:       SCX(V=⟨pred,cur⟩,      R=⟨cur⟩)
//   erase, full count    — remove:        SCX(V=⟨pred,cur,succ⟩, R=⟨cur,succ⟩)
// A zero count changes nothing, so it issues no SCX: insert(k, 0) returns
// true and erase(k, 0) returns 0 without touching the list.
//
// Get traverses with plain reads (Proposition 2, §4.3);
// get_llx_traversal is the deliberately-expensive variant E5 compares
// against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ds/list_llxscx.h"

namespace llxscx {

template <class Reclaim = EbrManager>
class BasicLlxScxMultiset {
  using L = List<Reclaim>;

 public:
  using Node = ListNode;
  static constexpr const char* kName = "llxscx-multiset";

  // Adds count copies of key; always true, as for the container
  // contract's other duplicate-accepting families. A zero count is a no-op
  // (see the header comment).
  bool insert(std::uint64_t key, std::uint64_t count = 1) {
    if (count == 0) return true;
    Epoch::Guard g;
    for (;;) {
      const auto s = L::pin(L::walk_to(list_.head(), key).pred, key);
      if (!s) continue;
      const bool present = s->cur->item() && s->cur->key == key;
      if (present ? L::replace(*s, s->cur->value + count)
                  : L::insert_before(*s, key, count)) {
        return true;
      }
    }
  }

  // Container-contract face (DESIGN.md §9): remove ONE copy of key; true
  // iff something was removed. The counted form below is the full API —
  // no default argument there, so the two faces never collide.
  bool erase(std::uint64_t key) { return erase(key, 1) != 0; }

  // Removes up to `count` copies of key; returns how many were removed.
  std::uint64_t erase(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return 0;
    Epoch::Guard g;
    for (;;) {
      const auto s = L::pin(L::walk_to(list_.head(), key).pred, key);
      if (!s) continue;
      const Node* cur = s->cur;
      if (!cur->item() || cur->key != key) return 0;
      if (cur->value > count) {
        if (L::replace(*s, cur->value - count)) return count;
      } else if (L::remove(*s)) {
        return cur->value;
      }
    }
  }

  // Membership by key (container contract): any copy present?
  bool contains(std::uint64_t key) const { return get(key) != 0; }

  // Element count — the sum of multiplicities — by plain-read traversal.
  // Exact when quiescent (container contract); holds one guard across the
  // walk, same caveat as the tree size() (a list has no stable spine to
  // re-enter a guard per segment).
  std::size_t size() const {
    Epoch::Guard g;
    std::size_t total = 0;
    L::walk_items(L::next_of(list_.head()), [&](const Node* n) {
      total += n->value;
      return true;
    });
    return total;
  }

  // Multiplicity of key, traversing with plain reads (Proposition 2).
  std::uint64_t get(std::uint64_t key) const {
    Epoch::Guard g;
    const Node* cur = L::walk_to(list_.head(), key).cur;
    return cur->item() && cur->key == key ? cur->value : 0;
  }

  // The E5 strawman: the same search but LLX-ing every node on the path,
  // restarting whenever a node is frozen or finalized underfoot.
  std::uint64_t get_llx_traversal(std::uint64_t key) const {
    Epoch::Guard g;
    for (;;) {
      auto lh = llx(list_.head());
      if (!lh.ok()) continue;
      const Node* cur = L::to_node(lh.field(Node::kNext));
      bool restart = false;
      while (cur->item()) {
        auto lc = llx(cur);
        if (!lc.ok()) {
          restart = true;
          break;
        }
        if (cur->key >= key) return cur->key == key ? cur->value : 0;
        cur = L::to_node(lc.field(Node::kNext));
      }
      if (!restart) return 0;
    }
  }

  // Ordered ⟨key, count⟩ snapshot; exact when quiescent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    return list_.items();
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
    L::walk_items(L::walk_to(list_.head(), lo).cur, [&](const Node* n) {
      if (n->key > hi) return false;
      out.emplace_back(n->key, n->value);
      return true;
    });
    return out.size() - base;
  }

 private:
  L list_;
};

using LlxScxMultiset = BasicLlxScxMultiset<EbrManager>;

}  // namespace llxscx
