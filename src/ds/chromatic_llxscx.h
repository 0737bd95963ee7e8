// Chromatic tree on LLX/SCX — the balanced tree of Brown, Ellen &
// Ruppert's follow-up (*A General Technique for Non-blocking Trees*,
// PPoPP 2014), built on the same single-SCX tree-update shapes as the
// BST/Patricia (ds/tree_template.h) plus small post-update rebalancing
// SCXs.
//
// A chromatic tree is a relaxed-balance red-black tree: every node
// carries a weight ≥ 0 (red = 0, black = 1, overweight = ≥ 2) and the
// tree maintains, at ALL times, exact *weighted-path equality* — every
// root-to-leaf path has the same weight sum. Two kinds of local
// *violations* are tolerated transiently:
//
//   red-red     w(x) = 0 and w(parent(x)) = 0
//   overweight  w(x) ≥ 2
//
// When no violations exist the weights are a red-black coloring, so
// height ≤ 2·log2(n+1) + O(1) — which is what turns the unbalanced
// BST's linear sequential-insert depth into O(log n) here.
//
// Updates (the template's two shapes, with weights chosen to preserve
// path sums exactly; leaves keep weight ≥ 1 invariantly):
//
//   insert at leaf l:  internal n gets w(l) − 1, both leaves get 1
//                      (path sum (w(l)−1)+1 = w(l); ≤ 1 new violation:
//                      n red under a red parent, or n still overweight)
//   delete of leaf l:  sibling copy s′ gets w(p) + w(s)
//                      (≤ 1 new violation: s′ overweight)
//
// Each update that created a violation then runs cleanup(key): walk from
// the root toward the key, fix the FIRST violation on the path with one
// small SCX, re-walk, until the path is clean. A violation only ever
// moves rootward along the path of the keys beneath it, so the creating
// operation's loop terminates with its violation gone; under quiescence
// the tree is violation-free (pinned by consistency_error() in
// tests/test_chromatic.cpp). The rebalancing catalog (weights derived
// from path-sum preservation; V/R sets in DESIGN.md §11):
//
//   recolor-root  tree-root weight ≠ 1 → 1 (uniform shift, always safe)
//   BLK           red-red, uncle red: p,u → 1, gp → w(gp)−1 (moves up)
//   RB1 / RB2     red-red, uncle black: single/double rotation,
//                 top gets w(gp), inner nodes get 0 (eliminates)
//   PUSH          overweight, sibling safe: x,s → −1, p → +1 (moves up)
//   W-ROT / W-DBL overweight, black sibling with a red child: rotation,
//                 top gets w(p), x → w(x)−1 (eliminates one unit)
//   RED-SIB       overweight, red sibling: rotate s up (s′ = w(p),
//                 p′ = 0), making the next iteration's sibling black
//
// All rebalancing SCXs freeze the whole section they read (V ≤ 5) and
// replace every node whose weight changes with a fresh copy — the same
// fresh-node/value-ABA discipline as every other structure here.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ds/tree_template.h"
#include "llxscx/llx_scx.h"
#include "llxscx/scx_op.h"
#include "reclaim/record_manager.h"
#include "util/memorder.h"

namespace llxscx {

struct ChromaticNode : DataRecord<2> {
  static constexpr std::size_t kLeft = 0;
  static constexpr std::size_t kRight = 1;

  // Internal node. The weight lives in the header's tag word, the leaf
  // flag in its tag byte: both immutable, so recoloring replaces the node.
  ChromaticNode(std::uint64_t k, std::uint32_t w, ChromaticNode* l,
                ChromaticNode* r)
      : DataRecord(/*leaf=*/0, w), key(k) {
    mut(kLeft).store(reinterpret_cast<std::uint64_t>(l), std::memory_order_relaxed);
    mut(kRight).store(reinterpret_cast<std::uint64_t>(r), std::memory_order_relaxed);
  }
  // Leaf: the value lives in the left child slot, which no SCX writes
  // (DESIGN.md §7); the template's value_of reads it.
  ChromaticNode(std::uint64_t k, std::uint64_t v, std::uint32_t w)
      : DataRecord(/*leaf=*/1, w), key(k) {
    mut(kLeft).store(v, std::memory_order_relaxed);
  }

  bool leaf() const { return tag_byte() != 0; }
  std::uint32_t weight() const { return tag_word(); }

  const std::uint64_t key;
};
// ⟨header, left, right, key⟩: a 48-byte malloc chunk (size class 1).
static_assert(sizeof(ChromaticNode) == 40);
static_assert(EbrManager::size_class_of(sizeof(ChromaticNode)) == 1);

template <class Reclaim = EbrManager>
class BasicLlxScxChromatic
    : public TreeTemplate<BasicLlxScxChromatic<Reclaim>, ChromaticNode,
                          Reclaim> {
  using Base =
      TreeTemplate<BasicLlxScxChromatic<Reclaim>, ChromaticNode, Reclaim>;
  friend Base;

 public:
  using Node = ChromaticNode;
  static constexpr const char* kName = "llxscx-chromatic";
  using Op = typename Base::Op;
  using Snapshot = typename Base::Snapshot;

  // User keys must be below kInf1; the two values above it are sentinels.
  static constexpr std::uint64_t kInf2 = ~std::uint64_t{0};
  static constexpr std::uint64_t kInf1 = kInf2 - 1;

  BasicLlxScxChromatic()
      : root_(kInf2, /*w=*/1,
              Reclaim::template alloc<Node>(kInf1, std::uint64_t{0},
                                            std::uint32_t{1}),
              Reclaim::template alloc<Node>(kInf2, std::uint64_t{0},
                                            std::uint32_t{1})) {}
  ~BasicLlxScxChromatic() { Base::destroy_all(); }
  BasicLlxScxChromatic(const BasicLlxScxChromatic&) = delete;
  BasicLlxScxChromatic& operator=(const BasicLlxScxChromatic&) = delete;

  // Quiescent structural audit: external shape, strict leaf-key order,
  // the chromatic invariants (leaf weights ≥ 1, no red-red, no
  // overweight), and exact weighted-path equality. Returns a description
  // of the first broken invariant, or nullopt when all hold — which is
  // what certifies the red-black height bound.
  std::optional<std::string> consistency_error() const {
    const Node* r = Base::read_child(&root_, Node::kLeft);
    struct Item {
      const Node* n;
      const Node* parent;
      std::uint64_t path_weight;  // weights root_→n inclusive, sans root_
    };
    std::vector<Item> stack{{r, &root_, r->weight()}};
    bool have_expected = false;
    std::uint64_t expected_path = 0;
    // Pushing right before left makes the DFS visit leaves in ascending
    // key order, so the strict-order audit rides the same walk.
    std::uint64_t prev_key = 0;
    bool have_prev_key = false;
    while (!stack.empty()) {
      const auto [n, parent, pw] = stack.back();
      stack.pop_back();
      if (n == nullptr) return "external shape: null child";
      if (n->weight() == 0 && parent != &root_ && parent->weight() == 0) {
        return "red-red violation at key " + std::to_string(n->key);
      }
      if (n->weight() >= 2) {
        return "overweight violation at key " + std::to_string(n->key);
      }
      if (n->leaf()) {
        if (n->weight() == 0) return "red leaf at key " + std::to_string(n->key);
        if (have_prev_key && n->key <= prev_key) {
          return "key order violation at " + std::to_string(n->key);
        }
        prev_key = n->key;
        have_prev_key = true;
        if (!have_expected) {
          have_expected = true;
          expected_path = pw;
        } else if (pw != expected_path) {
          return "weighted-path mismatch at leaf " + std::to_string(n->key);
        }
        continue;
      }
      const Node* l = Base::read_child(n, Node::kLeft);
      const Node* r2 = Base::read_child(n, Node::kRight);
      stack.push_back({r2, n, pw + (r2 ? r2->weight() : 0)});
      stack.push_back({l, n, pw + (l ? l->weight() : 0)});
    }
    return std::nullopt;
  }

 private:
  // delete(k): the sibling copy absorbs the unlinked parent's weight —
  // w(s′) = w(p) + w(s) keeps every surviving path sum unchanged.
  Fresh<Node> copy_for_erase(Op& op, Node* p, Node* s, const Snapshot& ls) {
    return copy_with_weight(op, s, ls, p->weight() + s->weight());
  }

  // Post-commit hooks: run cleanup only when this update actually
  // created a violation (the ≤-1-new-violation property makes the check
  // local). `repl`/`scopy` are published but guard-protected; all fields
  // read here are immutable.
  void after_erase(std::uint64_t key, Node* scopy) {
    if (scopy->weight() >= 2) cleanup(key);
  }

  // insert_all() group bound, chosen for the ≤-1-violation-per-group
  // invariant (DESIGN.md §15). A 2-key group's fresh subtree is
  // root(w(t)−1) over one weight-0 inner internal and three weight-1
  // leaves — exact path sums for any w(t), and at most ONE violation:
  //   w(t) = 1 → the inner internal is red under the red root (red-red);
  //              legal only when p is black, else the root itself would
  //              add a second — so that case shrinks to a scalar insert
  //   w(t) = 2 → root weight 1: no violation at all
  //   w(t) ≥ 3 → root overweight (one violation)
  static constexpr std::size_t kGroupCap = 2;
  std::size_t group_cap(const Node* p, const Node* t) const {
    return (p->weight() == 0 && t->weight() == 1) ? 1 : kGroupCap;
  }

  // Every insert's build: balanced fresh subtree, root carries w(t)−1
  // (t is a leaf, so w(t) ≥ 1 by the leaf-weight invariant), every other
  // internal 0, every leaf 1 — each root-to-leaf sum is
  // (w(t)−1) + 0… + 1 = w(t), so weighted-path equality is preserved
  // exactly. One key gives the scalar insert shape: internal(w(t)−1)
  // over two weight-1 leaves.
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
    return build_weighted(op, leaves, 0, cnt, l->weight() - 1);
  }

  Fresh<Node> build_weighted(Op& op,
                             const std::pair<std::uint64_t, std::uint64_t>* ls,
                             std::size_t b, std::size_t e, std::uint32_t w) {
    if (e - b == 1) {
      return op.freshly(ls[b].first, ls[b].second, std::uint32_t{1});
    }
    const std::size_t mid = b + (e - b + 1) / 2;  // left-heavy
    auto left = build_weighted(op, ls, b, mid, 0);
    auto right = build_weighted(op, ls, mid, e, 0);
    return op.freshly(ls[mid].first, w, left.get(), right.get());
  }

  // Per-group violation cleanup. The group root is overweight when
  // w(t) ≥ 3. A red root (w(t) = 1) is a violation for one key only under
  // a red p; for m = 2 it is one always, red-red at the inner internal
  // (group_cap already kept a red p out). The left-heavy build puts that
  // inner internal over the two SMALLEST leaves, and min(group) is always
  // among those two, so one cleanup toward ks[0] walks past every
  // candidate violation.
  void after_insert_all(const std::uint64_t* ks, std::size_t m, Node* repl,
                        Node* p) {
    const bool redred = repl->weight() == 0 && (m > 1 || p->weight() == 0);
    if (redred || repl->weight() >= 2) cleanup(ks[0]);
  }

  // Fix every violation on the search path toward `key`. Each fix SCX
  // either eliminates a violation or moves it rootward along this same
  // path, so the loop exits with the creating update's violation gone.
  // Failed LLX/SCX attempts (a concurrent update or a racing fixer got
  // there first) simply re-walk — lock-free like every other loop here.
  // Runs under the guard of its only callers, insert_all() and erase().
  void cleanup(std::uint64_t key) {
    for (;;) {
      Node* ggp = nullptr;
      Node* gp = nullptr;
      Node* p = &root_;
      std::size_t ggdir = 0, gdir = 0;
      std::size_t pdir = Base::dir_of(p, key);
      Node* n = Base::read_routed(p, pdir);
      for (;;) {
        const bool overweight = n->weight() >= 2;
        const bool redred =
            n->weight() == 0 && p != &root_ && p->weight() == 0;
        if (overweight) {
          fix_overweight(gp, gdir, p, pdir, n);
          break;  // re-walk
        }
        if (redred) {
          fix_redred(ggp, ggdir, gp, gdir, p, pdir, n);
          break;  // re-walk
        }
        if (n->leaf()) return;  // path to key is violation-free
        ggp = gp;
        ggdir = gdir;
        gp = p;
        gdir = pdir;
        p = n;
        pdir = Base::dir_of(p, key);
        n = Base::read_routed(p, pdir);
      }
    }
  }

  // --- rebalancing steps -------------------------------------------------
  // Every step LLXes top-down, re-derives each child from its parent's
  // snapshot and requires pointer identity with the walked window (nodes
  // are immutable except children, so identity ⇒ same weights/keys), then
  // assembles one SCX through the builder. A failed check just returns —
  // cleanup() re-walks.

  // Fresh internal with `at_d` placed on side d (orientation helper: the
  // mirror cases differ only in which child lands left).
  static Fresh<Node> oriented(Op& op, std::uint64_t k, std::uint32_t w,
                              Node* at_d, Node* other, std::size_t d) {
    return d == Node::kLeft ? op.freshly(k, w, at_d, other)
                            : op.freshly(k, w, other, at_d);
  }

  // Fresh copy of n with weight w: a leaf through the leaf constructor
  // (its value, never its left slot as a child), an internal node with
  // the children of its snapshot.
  static Fresh<Node> copy_with_weight(Op& op, const Node* n,
                                      const Snapshot& ln, std::uint32_t w) {
    return n->leaf()
               ? op.freshly(n->key, Base::value_of(n), w)
               : op.freshly(n->key, w, Base::to_node(ln.field(Node::kLeft)),
                            Base::to_node(ln.field(Node::kRight)));
  }

  // Tree-root normalization: the root sentinel's child is on every user
  // path, so setting its weight to 1 shifts all path sums uniformly —
  // always safe, and it absorbs both violation kinds at the top.
  //   V = ⟨root_, c⟩   R = ⟨c⟩   root_.child[dir] ← copy(c, w=1)
  void attempt_recolor(Node* parent, std::size_t dir, Node* child) {
    auto lr = llx(parent);
    if (!lr.ok()) return;
    if (Base::to_node(lr.field(dir)) != child) return;
    auto lc = llx(child);
    if (!lc.ok()) return;
    Op op;
    op.link(lr);
    op.remove(lc);
    auto c2 = copy_with_weight(op, child, lc, 1);
    op.write(parent, dir, c2);
    op.commit();
  }

  // Red-red at x (w(x)=0, w(p)=0). The walk guarantees w(gp) ≥ 1 when gp
  // is real: a red gp would itself have been a red-red one level up and
  // fixed first.
  void fix_redred(Node* ggp, std::size_t ggdir, Node* gp, std::size_t gdir,
                  Node* p, std::size_t pdir, Node* x) {
    if (gp == &root_) {
      // p is the tree-root: recolor it black, removing the violation.
      attempt_recolor(gp, gdir, p);
      return;
    }
    auto lggp = llx(ggp);
    if (!lggp.ok()) return;
    if (Base::to_node(lggp.field(ggdir)) != gp) return;
    auto lgp = llx(gp);
    if (!lgp.ok()) return;
    if (Base::to_node(lgp.field(gdir)) != p) return;
    auto lp = llx(p);
    if (!lp.ok()) return;
    if (Base::to_node(lp.field(pdir)) != x) return;
    Node* uncle = Base::to_node(lgp.field(1 - gdir));
    if (uncle->weight() == 0) {
      // BLK: p, uncle → 1; gp → w(gp)−1 (path sums: +1 then −1). The
      // violation moves to gp if gp turns red under a red parent.
      //   V = ⟨ggp, gp, p, u⟩   R = ⟨gp, p, u⟩
      auto lu = llx(uncle);
      if (!lu.ok()) return;
      Op op;
      op.link(lggp);
      op.remove(lgp);
      op.remove(lp);
      op.remove(lu);
      auto p2 = copy_with_weight(op, p, lp, 1);
      auto u2 = copy_with_weight(op, uncle, lu, 1);
      auto gp2 =
          oriented(op, gp->key, gp->weight() - 1, p2.get(), u2.get(), gdir);
      op.write(ggp, ggdir, gp2);
      op.commit();
      return;
    }
    if (pdir == gdir) {
      // RB1 single rotation: p takes gp's place and weight; gp turns red
      // below it. x, c (p's other child) and uncle are re-parented
      // untouched — their positions are covered by freezing gp and p.
      //   V = ⟨ggp, gp, p⟩   R = ⟨gp, p⟩
      Op op;
      op.link(lggp);
      op.remove(lgp);
      op.remove(lp);
      Node* c = Base::to_node(lp.field(1 - pdir));
      auto gp2 = oriented(op, gp->key, 0, c, uncle, gdir);
      auto p2 = oriented(op, p->key, gp->weight(), x, gp2.get(), gdir);
      op.write(ggp, ggdir, p2);
      op.commit();
      return;
    }
    // RB2 double rotation: x (inner, red ⇒ internal, since leaves keep
    // weight ≥ 1) takes gp's place and weight; p and gp turn red below.
    //   V = ⟨ggp, gp, p, x⟩   R = ⟨gp, p, x⟩
    assert(!x->leaf() && "red leaves cannot exist (leaf weights stay >= 1)");
    if (x->leaf()) return;
    auto lx = llx(x);
    if (!lx.ok()) return;
    Op op;
    op.link(lggp);
    op.remove(lgp);
    op.remove(lp);
    op.remove(lx);
    Node* c = Base::to_node(lp.field(1 - pdir));
    Node* a = Base::to_node(lx.field(gdir));      // stays on p's side
    Node* b = Base::to_node(lx.field(1 - gdir));  // goes to gp's side
    auto p2 = oriented(op, p->key, 0, c, a, gdir);
    auto gp2 = oriented(op, gp->key, 0, b, uncle, gdir);
    auto x2 = oriented(op, x->key, gp->weight(), p2.get(), gp2.get(), gdir);
    op.write(ggp, ggdir, x2);
    op.commit();
  }

  // Overweight at x (w(x) ≥ 2); gp is the write target (parent of p).
  void fix_overweight(Node* gp, std::size_t gdir, Node* p, std::size_t pdir,
                      Node* x) {
    if (p == &root_) {
      // x is the tree-root: normalize to weight 1 (uniform path shift).
      attempt_recolor(p, pdir, x);
      return;
    }
    auto lgp = llx(gp);
    if (!lgp.ok()) return;
    if (Base::to_node(lgp.field(gdir)) != p) return;
    auto lp = llx(p);
    if (!lp.ok()) return;
    if (Base::to_node(lp.field(pdir)) != x) return;
    Node* s = Base::to_node(lp.field(1 - pdir));
    if (s->weight() == 0) {
      // RED-SIB: rotate the red sibling up (s′ = w(p), p′ = 0); x keeps
      // its weight and gains a black sibling (s's child), so the next
      // cleanup iteration can push or rotate. s is internal: a weight-0
      // leaf cannot exist, and weighted-path equality next to w(x) ≥ 2
      // forces depth under s.
      //   V = ⟨gp, p, s⟩   R = ⟨p, s⟩
      assert(!s->leaf() && "red leaves cannot exist (leaf weights stay >= 1)");
      if (s->leaf()) return;
      auto ls = llx(s);
      if (!ls.ok()) return;
      Op op;
      op.link(lgp);
      op.remove(lp);
      op.remove(ls);
      Node* si = Base::to_node(ls.field(pdir));      // s's child nearer x
      Node* so = Base::to_node(ls.field(1 - pdir));  // farther child
      auto p2 = oriented(op, p->key, 0, x, si, pdir);
      auto s2 = oriented(op, s->key, p->weight(), p2.get(), so, pdir);
      op.write(gp, gdir, s2);
      op.commit();
      return;
    }
    // Black (or overweight) sibling: all remaining steps copy x and s.
    auto ls = llx(s);
    if (!ls.ok()) return;
    Node* si = nullptr;
    Node* so = nullptr;
    bool push = s->weight() >= 2 || s->leaf();
    if (!push) {
      si = Base::to_node(ls.field(pdir));
      so = Base::to_node(ls.field(1 - pdir));
      if (si->weight() >= 1 && so->weight() >= 1) push = true;
    }
    auto lx = llx(x);
    if (!lx.ok()) return;
    if (push) {
      // PUSH: x → w(x)−1, s → w(s)−1, p → w(p)+1; the overweight unit
      // moves to p (or dissolves). Guarded so s never turns red with a
      // red child: s either stays ≥ 1 or has no red children.
      //   V = ⟨gp, p, x, s⟩   R = ⟨p, x, s⟩
      Op op;
      op.link(lgp);
      op.remove(lp);
      op.remove(lx);
      op.remove(ls);
      auto x2 = copy_with_weight(op, x, lx, x->weight() - 1);
      auto s2 = copy_with_weight(op, s, ls, s->weight() - 1);
      auto p2 = oriented(op, p->key, p->weight() + 1, x2.get(), s2.get(), pdir);
      op.write(gp, gdir, p2);
      op.commit();
      return;
    }
    if (so->weight() == 0) {
      // W-ROT single rotation (black sibling, far child red): s takes
      // p's place with w(p); x sheds one weight unit; so turns black.
      //   V = ⟨gp, p, x, s, so⟩   R = ⟨p, x, s, so⟩
      auto lso = llx(so);
      if (!lso.ok()) return;
      Op op;
      op.link(lgp);
      op.remove(lp);
      op.remove(lx);
      op.remove(ls);
      op.remove(lso);
      auto x2 = copy_with_weight(op, x, lx, x->weight() - 1);
      auto p2 = oriented(op, p->key, 1, x2.get(), si, pdir);
      auto so2 = copy_with_weight(op, so, lso, 1);
      auto s2 = oriented(op, s->key, p->weight(), p2.get(), so2.get(), pdir);
      op.write(gp, gdir, s2);
      op.commit();
      return;
    }
    // W-DBL double rotation (black sibling, near child red): si takes
    // p's place with w(p); x sheds one unit; p and s turn black (1).
    // si is internal for the same reason s is in RED-SIB.
    //   V = ⟨gp, p, x, s, si⟩   R = ⟨p, x, s, si⟩
    assert(!si->leaf() && "red leaves cannot exist (leaf weights stay >= 1)");
    if (si->leaf()) return;
    auto lsi = llx(si);
    if (!lsi.ok()) return;
    Op op;
    op.link(lgp);
    op.remove(lp);
    op.remove(lx);
    op.remove(ls);
    op.remove(lsi);
    Node* a = Base::to_node(lsi.field(pdir));      // stays on x's side
    Node* b = Base::to_node(lsi.field(1 - pdir));  // goes to s's side
    auto x2 = copy_with_weight(op, x, lx, x->weight() - 1);
    auto p2 = oriented(op, p->key, 1, x2.get(), a, pdir);
    auto s2 = oriented(op, s->key, 1, b, so, pdir);
    auto si2 = oriented(op, si->key, p->weight(), p2.get(), s2.get(), pdir);
    op.write(gp, gdir, si2);
    op.commit();
  }

  Node* root_ptr() { return &root_; }
  const Node* root_ptr() const { return &root_; }

  // Permanent root sentinel: internal(kInf2, w=1), never in any R-set.
  Node root_;
};

using LlxScxChromatic = BasicLlxScxChromatic<EbrManager>;

}  // namespace llxscx
