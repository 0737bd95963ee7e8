// External (leaf-oriented) BST on LLX/SCX — the paper's headline tree
// application (§6, claim C-H): every update is ONE SCX that swaps a
// constant-size connected subgraph for freshly allocated nodes.
//
// Structure. Internal nodes carry a routing key and two children; all
// ⟨key, value⟩ pairs live in leaves. Search goes left iff key < node.key.
// Two sentinel keys (kInf1 < kInf2, above every user key) give the classic
// Ellen-et-al. shape: the permanent root is internal(kInf2) whose right
// child is forever leaf(kInf2) and whose left subtree always contains
// leaf(kInf1) as its rightmost leaf. Consequence: every user-key leaf has
// both a parent and a grandparent, so the delete shape below never needs a
// special root case.
//
// SCX shapes (DESIGN.md §8). Fresh-node discipline is identical to the
// Fig. 6 multiset (§6): every value SCX installs into a child field is a
// node allocated inside the current operation, so the usage assumption
// (new never previously in fld) holds by construction, and epoch
// reclamation keeps retired addresses from recurring while helpers run.
//
//   insert(k) at leaf l under parent p, dir = side of l under p:
//     V = ⟨p, l⟩       R = ⟨l⟩       p.child[dir] ← internal(max(k,l.key),
//                                        leaf(k), fresh copy l′)  [k=2]
//   delete(k) of leaf l under parent p, sibling s, grandparent gp:
//     V = ⟨gp, p, s⟩   R = ⟨p, s⟩    gp.child[dir] ← fresh copy s′  [k=3]
//
// The removed leaf l is NOT in V: l's fields are immutable and any update
// touching the position ⟨p, l⟩ carries p in its V-set, so finalizing p
// already excludes it. l is retired (unreachable) but never finalized.
// The sibling is copied, not re-linked, exactly like the multiset's
// full-delete successor: s's address must never be written into gp's
// child field (value-ABA door), so s is finalized and s′ takes its place.
//
// The search/update/retry scaffolding lives in ds/tree_template.h (the
// tree-update template, DESIGN.md §11), and so does the external-BST key
// order this tree shares with the chromatic tree (routing, pruning and
// interval hooks, the kInf1 sentinel filter): this class supplies only
// the one insert builder (build_group; for one key it is the insert shape
// above) and the erase copy. The template emits byte-identical
// shared-step sequences to the previous hand-rolled loops — the pinned
// CAS/write/alloc shapes in test_bst are the proof.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/tree_template.h"
#include "llxscx/llx_scx.h"
#include "llxscx/scx_op.h"
#include "reclaim/record_manager.h"
#include "util/memorder.h"

namespace llxscx {

struct BstNode : DataRecord<2> {
  static constexpr std::size_t kLeft = 0;
  static constexpr std::size_t kRight = 1;

  // Internal node.
  BstNode(std::uint64_t k, BstNode* l, BstNode* r)
      : DataRecord(/*leaf=*/0, 0), key(k) {
    mut(kLeft).store(reinterpret_cast<std::uint64_t>(l), std::memory_order_relaxed);
    mut(kRight).store(reinterpret_cast<std::uint64_t>(r), std::memory_order_relaxed);
  }
  // Leaf: the value lives in the left child slot, which no SCX writes
  // (DESIGN.md §7); the template's value_of reads it.
  BstNode(std::uint64_t k, std::uint64_t v) : DataRecord(/*leaf=*/1, 0), key(k) {
    mut(kLeft).store(v, std::memory_order_relaxed);
  }

  bool leaf() const { return tag_byte() != 0; }

  const std::uint64_t key;
};
// ⟨header, left, right, key⟩: a 48-byte malloc chunk (size class 1).
static_assert(sizeof(BstNode) == 40);
static_assert(EbrManager::size_class_of(sizeof(BstNode)) == 1);

template <class Reclaim = EbrManager>
class BasicLlxScxBst
    : public TreeTemplate<BasicLlxScxBst<Reclaim>, BstNode, Reclaim> {
  using Base = TreeTemplate<BasicLlxScxBst<Reclaim>, BstNode, Reclaim>;
  friend Base;

 public:
  using Node = BstNode;
  static constexpr const char* kName = "llxscx-bst";
  using Op = typename Base::Op;
  using Snapshot = typename Base::Snapshot;

  // User keys must be below kInf1; the two values above it are sentinels.
  static constexpr std::uint64_t kInf2 = ~std::uint64_t{0};
  static constexpr std::uint64_t kInf1 = kInf2 - 1;

  BasicLlxScxBst()
      : root_(kInf2, Reclaim::template alloc<Node>(kInf1, 0),
              Reclaim::template alloc<Node>(kInf2, 0)) {}
  ~BasicLlxScxBst() { Base::destroy_all(); }
  BasicLlxScxBst(const BasicLlxScxBst&) = delete;
  BasicLlxScxBst& operator=(const BasicLlxScxBst&) = delete;

 private:
  // delete(k): fresh sibling copy (children taken from the LLX snapshot).
  Fresh<Node> copy_for_erase(Op& op, Node* /*p*/, Node* s, const Snapshot& ls) {
    return s->leaf()
               ? op.freshly(s->key, Base::value_of(s))
               : op.freshly(s->key, Base::to_node(ls.field(Node::kLeft)),
                            Base::to_node(ls.field(Node::kRight)));
  }

  // insert_all() group bound: 2·G+1 fresh nodes per group must fit the
  // ScxOp fresh array; no balance bookkeeping here, so the cap is flat.
  static constexpr std::size_t kGroupCap = 16;
  std::size_t group_cap(const Node* /*p*/, const Node* /*t*/) const {
    return kGroupCap;
  }

  // Every insert's build (DESIGN.md §15): ONE SCX installs a balanced
  // fresh subtree over the group's new leaves plus the displaced leaf's
  // copy — for one key k, internal(max(k, l.key), leaf(k), l′). The
  // displaced leaf and the group keys all live inside the target edge's
  // key interval, so plain key order is the tree order.
  Fresh<Node> build_group(Op& op, Node* l, const Snapshot& /*lt*/,
                          const std::uint64_t* ks, std::size_t m,
                          std::uint64_t value) {
    std::pair<std::uint64_t, std::uint64_t> leaves[kGroupCap + 1];
    std::size_t cnt = 0;
    bool placed = false;
    for (std::size_t a = 0; a < m; ++a) {
      if (!placed && l->key < ks[a]) {
        leaves[cnt++] = {l->key, Base::value_of(l)};
        placed = true;
      }
      leaves[cnt++] = {ks[a], value};
    }
    if (!placed) leaves[cnt++] = {l->key, Base::value_of(l)};
    return build_balanced(op, leaves, 0, cnt);
  }

  // Balanced external subtree over sorted leaves [b, e): internal keys are
  // the smallest key of their right subtree (the dir_of convention).
  Fresh<Node> build_balanced(Op& op,
                             const std::pair<std::uint64_t, std::uint64_t>* ls,
                             std::size_t b, std::size_t e) {
    if (e - b == 1) return op.freshly(ls[b].first, ls[b].second);
    const std::size_t mid = b + (e - b + 1) / 2;  // left-heavy
    auto left = build_balanced(op, ls, b, mid);
    auto right = build_balanced(op, ls, mid, e);
    return op.freshly(ls[mid].first, left.get(), right.get());
  }

  Node* root_ptr() { return &root_; }
  const Node* root_ptr() const { return &root_; }

  // Permanent root sentinel: internal(kInf2), never frozen into any R-set.
  Node root_;
};

using LlxScxBst = BasicLlxScxBst<EbrManager>;

}  // namespace llxscx
