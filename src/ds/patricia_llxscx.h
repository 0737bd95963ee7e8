// Binary Patricia trie on LLX/SCX — the paper's second tree application
// (§6, claim C-H), sharing the BST's single-SCX update shapes.
//
// Structure. Leaf-oriented compressed binary trie over 64-bit keys,
// MSB-first. A branch node stores `bit` (the index of the bit its two
// subtrees differ on) and `prefix` (the key bits strictly above `bit`,
// lower bits zeroed); all branch nodes on a root-to-leaf path have
// strictly decreasing `bit`. Routing at a branch tests the key's `bit`:
// 0 → left, 1 → right. Storing the prefix makes the insertion point
// locally checkable from immutable fields alone — no re-walk is needed to
// validate what a concurrent update may have moved (see can_descend()).
//
// Sentinels: the root is a pseudo-branch (bit 64, never routed by bit —
// the trie hangs off its left child; the right child is unused) and the
// trie always contains the permanent leaf kSentinelKey = ~0, which routes
// right at every branch and is therefore the rightmost leaf of the whole
// trie. User keys must be < kSentinelKey. Consequence, as in the BST:
// every user-key leaf has a branch-node parent and a grandparent (a lone
// depth-1 leaf would have to BE the rightmost sentinel), so delete never
// needs a root special case.
//
// SCX shapes (DESIGN.md §8) — fresh-node discipline identical to the
// Fig. 6 multiset and the BST:
//
//   insert(k), splitting edge p→n on differing bit b:
//     V = ⟨p, n⟩       R = ⟨n⟩       p.child[dir] ← branch(b, leaf(k), n′)
//                                                                     [k=2]
//   delete(k) of leaf l under branch p, sibling s, grandparent gp:
//     V = ⟨gp, p, s⟩   R = ⟨p, s⟩    gp.child[dir] ← fresh copy s′    [k=3]
//
// n′/s′ are fresh copies (same immutable fields, children taken from the
// LLX snapshot), so no address is ever written twice into the same child
// field; the removed leaf l is retired unfinalized exactly as in the BST.
//
// The search/update/retry scaffolding lives in ds/tree_template.h (the
// tree-update template, DESIGN.md §11); this class hides the template's
// key-order hooks with routing by bit, the prefix-mismatch walk
// predicate and prefix-interval pruning, and supplies the one insert
// builder (build_group; for one key it is the split shape above) and the
// erase copy. Shared-step sequences are byte-identical to the previous
// hand-rolled loops (pinned in test_patricia).
#pragma once

#include <bit>
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

struct PatriciaNode : DataRecord<2> {
  static constexpr std::size_t kLeft = 0;
  static constexpr std::size_t kRight = 1;

  // Branch node: subtree keys agree on bits above `bit` (== prefix) and
  // split on `bit` itself, which lives in the header's tag word.
  PatriciaNode(std::uint64_t pfx, unsigned b, PatriciaNode* l, PatriciaNode* r)
      : DataRecord(/*leaf=*/0, b), prefix(pfx) {
    mut(kLeft).store(reinterpret_cast<std::uint64_t>(l), std::memory_order_relaxed);
    mut(kRight).store(reinterpret_cast<std::uint64_t>(r), std::memory_order_relaxed);
  }
  // Leaf: `prefix` holds the full key; the value lives in the left child
  // slot, which no SCX writes (DESIGN.md §7).
  PatriciaNode(std::uint64_t k, std::uint64_t v)
      : DataRecord(/*leaf=*/1, 0), prefix(k) {
    mut(kLeft).store(v, std::memory_order_relaxed);
  }

  bool leaf() const { return tag_byte() != 0; }
  unsigned bit() const { return tag_word(); }  // branch only; 64 = root
  std::uint64_t key() const { return prefix; }

  const std::uint64_t prefix;  // branch: bits above bit(); leaf: the key
};
// ⟨header, left, right, prefix⟩: a 48-byte malloc chunk (size class 1).
static_assert(sizeof(PatriciaNode) == 40);
static_assert(EbrManager::size_class_of(sizeof(PatriciaNode)) == 1);

template <class Reclaim = EbrManager>
class BasicLlxScxPatricia
    : public TreeTemplate<BasicLlxScxPatricia<Reclaim>, PatriciaNode, Reclaim> {
  using Base = TreeTemplate<BasicLlxScxPatricia<Reclaim>, PatriciaNode, Reclaim>;
  friend Base;

 public:
  using Node = PatriciaNode;
  static constexpr const char* kName = "llxscx-patricia";
  using Op = typename Base::Op;
  using Snapshot = typename Base::Snapshot;

  // All-ones is the permanent rightmost sentinel leaf; user keys below it.
  static constexpr std::uint64_t kSentinelKey = ~std::uint64_t{0};

  BasicLlxScxPatricia()
      : root_(/*pfx=*/0, /*bit=*/64,
              Reclaim::template alloc<Node>(kSentinelKey, 0), nullptr) {}
  ~BasicLlxScxPatricia() { Base::destroy_all(); }
  BasicLlxScxPatricia(const BasicLlxScxPatricia&) = delete;
  BasicLlxScxPatricia& operator=(const BasicLlxScxPatricia&) = delete;

 private:
  // Bit routing hides the template's external-BST key order (is_leaf and
  // value_of are the template's: the same leaf() tag and left-slot value).
  static std::uint64_t key_of(const Node* n) { return n->key(); }
  static std::size_t dir_of(const Node* n, std::uint64_t key) {
    return (key >> n->bit()) & 1 ? Node::kRight : Node::kLeft;
  }
  // The pseudo-branch root (bit 64) must not be routed by bit: the trie
  // is always its left child.
  std::size_t root_dir(std::uint64_t /*key*/) const { return Node::kLeft; }
  // Insert's walk ends at the edge p→n where n is a leaf OR n's prefix
  // disagrees with key above n's bit. Both checks read only immutable
  // fields, so re-checking n from p's LLX snapshot revalidates the whole
  // position.
  static bool can_descend(const Node* n, std::uint64_t key) {
    return !n->leaf() && matches_prefix(n, key);
  }
  static bool is_user_leaf(const Node* n) { return n->key() != kSentinelKey; }

  // Does `key` agree with branch n on every bit above n->bit()?
  static bool matches_prefix(const Node* n, std::uint64_t key) {
    return ((key ^ n->prefix) >> n->bit()) >> 1 == 0;
  }

  Fresh<Node> copy_for_erase(Op& op, Node* /*p*/, Node* s, const Snapshot& ls) {
    return copy_of(op, s, ls);
  }

  // Fresh structural copy from an LLX snapshot (immutable fields + the
  // snapshotted children), minted through the op so the builder owns it
  // until commit — the fresh-node discipline, §8 rule 3.
  static Fresh<Node> copy_of(Op& op, const Node* n, const Snapshot& ln) {
    return n->leaf()
               ? op.freshly(n->key(), Base::value_of(n))
               : op.freshly(n->prefix, n->bit(),
                            Base::to_node(ln.field(Node::kLeft)),
                            Base::to_node(ln.field(Node::kRight)));
  }

  // range() pruning: a branch's dir subtree covers exactly the key
  // interval [prefix | dir·2^bit, prefix | dir·2^bit + 2^bit − 1] — a
  // prefix scan is just a range over that interval. The bit-64 root
  // pseudo-branch has the whole trie on its left, nothing on its right.
  static bool scan_dir(const Node* n, std::size_t dir, std::uint64_t lo,
                       std::uint64_t hi) {
    if (n->bit() >= 64) return dir == Node::kLeft;
    const std::uint64_t base =
        n->prefix | (std::uint64_t{dir != 0} << n->bit());
    const std::uint64_t top = base | ((std::uint64_t{1} << n->bit()) - 1);
    return base <= hi && top >= lo;
  }

  // insert_all() interval tracking: the same subtree interval, exact —
  // nested within the caller's, so plain assignment narrows correctly.
  static void clamp_interval(const Node* n, std::size_t dir, std::uint64_t& lo,
                             std::uint64_t& hi) {
    if (n->bit() >= 64) return;  // root pseudo-branch: no constraint
    lo = n->prefix | (std::uint64_t{dir != 0} << n->bit());
    hi = lo | ((std::uint64_t{1} << n->bit()) - 1);
  }

  // insert_all() group bound: 2·G+1 fresh nodes must fit the ScxOp fresh
  // array; the trie has no balance bookkeeping, so the cap is flat.
  static constexpr std::size_t kGroupCap = 16;
  std::size_t group_cap(const Node* /*p*/, const Node* /*t*/) const {
    return kGroupCap;
  }

  // Every insert's build: the canonical compressed trie over the group's
  // new leaves plus ONE copy of the displaced node t, treated as an
  // atomic item. Items are ordered by representative key (a leaf's key;
  // t's branch prefix = the low end of its covered interval — group keys
  // never fall inside that interval, they all mismatch t's prefix, so
  // representative order is trie order and every split bit chosen
  // between items stays above t->bit()). For one key k that is
  // branch(b, leaf(k), t′) on the highest bit b where k and t differ —
  // a leaf's split and a compressed branch edge's split alike.
  Fresh<Node> build_group(Op& op, Node* t, const Snapshot& lt,
                          const std::uint64_t* ks, std::size_t m,
                          std::uint64_t value) {
    struct Item {
      std::uint64_t rep;
      Node* node;
    };
    Item items[kGroupCap + 1];
    const std::uint64_t trep = t->leaf() ? t->key() : t->prefix;
    std::size_t cnt = 0;
    bool placed = false;
    for (std::size_t a = 0; a < m; ++a) {
      if (!placed && trep < ks[a]) {
        items[cnt++] = {trep, copy_of(op, t, lt).get()};
        placed = true;
      }
      items[cnt++] = {ks[a], op.freshly(ks[a], value).get()};
    }
    if (!placed) items[cnt++] = {trep, copy_of(op, t, lt).get()};
    // cnt ≥ 2 (≥ 1 new key + the copy of t): the top is always a branch.
    return build_trie(op, items, 0, cnt);
  }

  // Canonical compressed trie over sorted items [b, e), e − b ≥ 2: split
  // at the highest bit where the first and last representatives differ
  // (all items in between agree on everything above it).
  template <class Item>
  Fresh<Node> build_trie(Op& op, const Item* it, std::size_t b,
                         std::size_t e) {
    const unsigned sb = 63 - static_cast<unsigned>(
                                 std::countl_zero(it[b].rep ^ it[e - 1].rep));
    std::size_t mid = b + 1;
    while (!((it[mid].rep >> sb) & 1)) ++mid;
    const std::uint64_t pfx = it[b].rep & ~((std::uint64_t{2} << sb) - 1);
    Node* l = mid - b == 1 ? it[b].node : build_trie(op, it, b, mid).get();
    Node* r = e - mid == 1 ? it[mid].node : build_trie(op, it, mid, e).get();
    return op.freshly(pfx, sb, l, r);
  }

  Node* root_ptr() { return &root_; }
  const Node* root_ptr() const { return &root_; }

  // Root pseudo-branch (bit 64): the trie is its left child, right unused.
  Node root_;
};

using LlxScxPatricia = BasicLlxScxPatricia<EbrManager>;

}  // namespace llxscx
