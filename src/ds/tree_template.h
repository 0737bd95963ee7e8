// Tree-update template — the generic leaf-oriented-tree engine the
// paper's §6 tree applications share (and Brown, Ellen & Ruppert's
// PPoPP'14 follow-up, *A General Technique for Non-blocking Trees*,
// turns into a method): every update is
//
//   search path → LLX the affected section → compute a fresh subtree
//   → SCX(V, R)
//
// and everything EXCEPT the structure-specific pieces of that sentence —
// the retry loop, the plain-read walk with grandparent tracking, the
// LLX-pin-and-revalidate step, sentinel handling at the root, the ScxOp
// assembly, commit-time retirement, the whole-tree walk and the
// RecordManager plumbing — is identical across the external BST, the
// Patricia trie, and the chromatic tree. This header writes it once.
//
// TreeTemplate<Derived, Node, Reclaim> is a CRTP base. The routing hooks
// have defaults here: the external-BST key order (a node with a leaf()
// tag and a `key` field, whose leaves keep their value in the left child
// slot; left iff key < n->key; user keys below Derived::kInf1), which the
// BST and the chromatic tree inherit. The Patricia trie hides the
// key-order ones with its bit-routed versions.
//
//   static is_leaf(n)            leaf/interior discrimination
//   static key_of(n), value_of(n)  immutable payload access
//   static dir_of(n, key)        routing at an interior node
//   root_dir(key)                the first step out of the root sentinel
//                                (Patricia's bit-64 pseudo-branch must not
//                                be routed by bit; the BSTs route normally)
//   static can_descend(n, key)   insert's walk predicate — where the
//                                search path ends for an insertion (BSTs:
//                                at the leaf; Patricia: also at the first
//                                prefix mismatch). Re-checked against the
//                                parent's LLX snapshot, so everything the
//                                SCX consumes is snapshot-derived.
//   static clamp_interval(n, dir, lo, hi)
//                                narrows [lo, hi] to the keys routed into
//                                n's dir subtree (insert_all's grouping)
//   static scan_dir(n, dir, lo, hi)  range()'s subtree pruning
//   static is_user_leaf(n)       sentinel filter for the whole-tree reads
//
// and every Derived supplies the irreducible design work of DESIGN.md §8:
//
//   kGroupCap, group_cap(p, t)   the most keys one insert SCX installs
//   build_group(op, t, lt, ks, m, v)
//                                the fresh replacement subtree for an
//                                insert of the m ascending keys ks
//                                displacing t (snapshot lt); m = 1 is the
//                                scalar insert shape
//   copy_for_erase(op, p, s, ls)   the fresh sibling copy an erase
//                                installs (chromatic: carries w(p)+w(s))
//   after_insert_all(ks, m, repl, p) / after_erase(k, scopy)
//                                post-commit hooks (no-ops here; the
//                                chromatic tree hangs its violation
//                                cleanup off them)
//
// insert() is a one-key insert_all(), and for one key build_group
// allocates the three records of the hand-written scalar insert in the
// same shape. So the engine emits byte-identical shared-step sequences to
// the previous hand-written BST/Patricia code — same LLX calls, same SCX
// shapes (insert SCX(V=⟨p,l⟩,R=⟨l⟩), erase SCX(V=⟨gp,p,s⟩,R=⟨p,s⟩)),
// same allocation counts — and the pinned CAS/write/alloc tests of
// test_bst/test_patricia pass unchanged (the zero-overhead proof, as in
// the PR 3 ScxOp port). The hooks are header-visible and the after_*
// defaults are empty, so the compiler erases the indirection.
//
// size(), items(), depth_stats() and the destructor's destroy_all() ride
// one private walker (walk()); get() is the one point read.
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

// Quiescent balance summary (depth counted in edges below the root
// sentinel, over user leaves only). What bench_bst's --json emits and
// test_chromatic pins: the unbalanced BST's sequential-insert max_depth
// is linear, the chromatic tree's stays O(log n).
struct TreeDepthStats {
  std::size_t user_leaves = 0;
  std::size_t max_depth = 0;
  double avg_depth = 0.0;
};

template <class Derived, class NodeT, class Reclaim>
class TreeTemplate {
 public:
  using Node = NodeT;
  using Op = ScxOp<NodeT, Reclaim>;
  using Snapshot = LlxResult<NodeT::kNumMut>;

  std::optional<std::uint64_t> get(std::uint64_t key) const {
    Epoch::Guard g;
    const Node* n = read_routed(self().root_ptr(), self().root_dir(key));
    while (!Derived::is_leaf(n)) n = read_routed(n, Derived::dir_of(n, key));
    if (Derived::key_of(n) == key) return Derived::value_of(n);
    return std::nullopt;
  }

  // Membership by key: the same plain-read walk as get() (Proposition 2 —
  // no LLX, no CAS), surfaced for the container contract (DESIGN.md §9).
  bool contains(std::uint64_t key) const { return get(key).has_value(); }

  // Batched membership (DESIGN.md §14): out[i] = contains(keys[i]).
  //
  // Up to kLanes descents run interleaved: each lane takes one root-to-
  // leaf step per round-robin turn and prefetches the child it will visit
  // next, overlapping the lanes' cache misses (a scalar walk serializes
  // one miss per level). Every step is the SAME instrumented read_routed a
  // scalar get() takes, in the same per-key order — plain acquire reads
  // only (Proposition 2), 0 LLX, 0 CAS, per-key read counts identical to
  // get(). One epoch guard covers the call; linearization is per key,
  // exactly as if the gets were issued back to back (a batch is not a
  // snapshot).
  void multi_get(const std::uint64_t* keys, std::size_t n, bool* out) const {
    Epoch::Guard g;
    constexpr std::size_t kLanes = 8;
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t m = n - base < kLanes ? n - base : kLanes;
      const Node* cur[kLanes];  // nullptr ⇒ lane answered
      for (std::size_t l = 0; l < m; ++l) {
        const std::uint64_t key = keys[base + l];
        const Node* c = read_routed(self().root_ptr(), self().root_dir(key));
        __builtin_prefetch(c);
        cur[l] = c;
      }
      std::size_t live = m;
      while (live > 0) {
        for (std::size_t l = 0; l < m; ++l) {
          const Node* c = cur[l];
          if (c == nullptr) continue;
          const std::uint64_t key = keys[base + l];
          if (Derived::is_leaf(c)) {
            out[base + l] = Derived::key_of(c) == key;
            cur[l] = nullptr;
            --live;
          } else {
            const Node* nx = read_routed(c, Derived::dir_of(c, key));
            __builtin_prefetch(nx);
            cur[l] = nx;
          }
        }
      }
    }
  }

  // Ordered range scan (DESIGN.md §15): appends every user ⟨key, value⟩
  // with lo ≤ key ≤ hi to `out` in ascending key order and returns how
  // many were appended. Linearizable snapshot of [lo, hi], at VLX cost:
  //
  //   walk the pruned subtree, capturing a VLX witness ⟨n, info(n)⟩ for
  //   every interior node BEFORE reading its children, then VLX the whole
  //   witness set once at the end.
  //
  // A witness is two acquire loads (the node's info word and the state of
  // the operation it names) — NOT an LLX: nothing is linked for an SCX, no
  // freeze, no CAS, no write, no allocation of records. A witness is only
  // accepted if that operation is DECIDED (committed/aborted, or its
  // slot's seq has moved on); an in-progress one is helped to completion
  // and the walk restarts. That decided-state check is what makes the
  // final VLX sufficient:
  //
  //   · a decided operation performs no further field writes (committed ⇒
  //     its update-CAS already happened and fresh-value discipline keeps it
  //     from succeeding twice; aborted ⇒ some freeze failed, so no helper
  //     ever reaches the update-CAS), and
  //   · any NEW SCX touching a witnessed node must freeze it, replacing
  //     info — which the final VLX detects.
  //
  // So info(n) unchanged at VLX time ⇒ n's child fields were untouched for
  // the whole [witness, VLX] window; witnesses are captured parent-before-
  // child, so the windows chain from the root and the collected leaves
  // form a snapshot that was the tree's [lo, hi] contents at the VLX
  // point. Conflicts restart a bounded re-walk of the pruned subtree,
  // after helping the conflicting SCX — so a failed attempt pushes the
  // system forward.
  //
  // Per attempt: 0 LLX, 0 CAS, 0 shared writes, 0 record allocations;
  // shared reads = one per descended edge + three per interior node
  // (witness info + state, VLX) — pinned exactly in test_range.
  //
  // The walk is a depth-first descent that never sends a left child
  // through its stack. At an interior node, witnessed before either child
  // is read, an in-window left child that is interior is stepped into in
  // place, with the in-window right child parked on the stack; a left
  // child that is a leaf is emitted on the spot and the walk steps on to
  // the right child; with no left child in the window it steps straight
  // to the right child. A node's left subtree is thus done before its
  // right child is reached, so leaves come out in ascending key order.
  // Pruning is the engine's scan_dir(n, dir, lo, hi) hook: may the dir
  // subtree of n intersect [lo, hi]? It reads only immutable routing
  // fields, so pruning costs no shared reads.
  //
  // The witness set and the right-child stack live in per-thread
  // buffers, cleared on each attempt, so a warm call touches no heap when
  // `out` has room (pinned in test_range). They keep their high-water
  // capacity: the largest window this thread has scanned (the same
  // policy as ShardedMap's batch Scratch, DESIGN.md §14). Nothing reached
  // from range — witness, detail_help, vlx — may re-enter it on the same
  // thread.
  std::size_t range(std::uint64_t lo, std::uint64_t hi,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out)
      const {
    static_assert(Node::kNumMut == 2, "range() walks binary trees");
    if (lo > hi) return 0;
    Epoch::Guard g;
    const std::size_t base = out.size();
    ScanBuffers& sb = scan_buffers();
    std::vector<LinkedLlx>& w = sb.w;
    std::vector<const Node*>& stack = sb.stack;
    // The in-window dir child of interior p, or nullptr when pruned.
    const auto child = [&](const Node* p, std::size_t dir) -> const Node* {
      return Derived::scan_dir(p, dir, lo, hi) ? read_child(p, dir) : nullptr;
    };
    // Leaf payload is immutable; reachability is the parent witness's
    // job. No witness needed.
    const auto emit = [&](const Node* leaf) {
      if (!self().is_user_leaf(leaf)) return;
      const std::uint64_t k = Derived::key_of(leaf);
      if (k >= lo && k <= hi) out.emplace_back(k, Derived::value_of(leaf));
    };
    for (;;) {
      out.resize(base);
      w.clear();
      stack.clear();
      const Node* n = self().root_ptr();
      for (;;) {
        if (Derived::is_leaf(n)) {
          emit(n);
        } else {
          if (!witness(n, w)) break;  // helped an in-progress SCX: restart
          const Node* r = child(n, Node::kRight);
          const Node* l = child(n, Node::kLeft);
          if (l != nullptr) {
            if (!Derived::is_leaf(l)) {
              if (r != nullptr) stack.push_back(r);
              n = l;
              continue;
            }
            emit(l);
          }
          if (r != nullptr) {
            n = r;
            continue;
          }
        }
        if (stack.empty()) {
          if (vlx(w.data(), w.size())) return out.size() - base;
          break;  // a witness moved: restart
        }
        n = stack.back();
        stack.pop_back();
      }
    }
  }

  // Bulk insert (DESIGN.md §15), and the trees' one insert path: insert()
  // is a one-key run. Keys may come in any order; duplicates in the run
  // and keys already present are consumed without effect. Returns how
  // many keys were newly inserted. Each maximal group of consecutive,
  // ascending run keys routing to the same insertion edge p→t is
  // installed by ONE SCX — V = ⟨p, t⟩, R = ⟨t⟩, the scalar insert shape —
  // whose fresh subtree carries the whole group (2·G+1 fresh nodes for G
  // keys), amortizing the per-key LLX/SCX cost that makes a grow phase
  // insert-bound. Grouping is exact, not heuristic: the walk narrows the
  // key interval [glo, ghi] routed to the target edge via the engine's
  // clamp_interval hook, and a run key joins the group iff it lies in the
  // interval, does not descend into the (snapshot-derived) target — i.e.
  // iff its own scalar walk would end at this edge — and is above the
  // group's last key. Any other key ends the group and the next walk
  // starts from it: an unsorted run is correct, sorted runs are what
  // group. The engine's group_cap hook bounds the group by kGroupCap (the
  // chromatic tree also shrinks it to keep ≤1 balance violation per
  // group, see chromatic_llxscx.h). The group is a kGroupCap-key array,
  // so the records the SCXs install are the only heap allocations.
  std::size_t insert_all(const std::uint64_t* keys, std::size_t n,
                         std::uint64_t value) {
    static_assert(2 * Derived::kGroupCap + 1 <= Op::kMaxFresh,
                  "a full group's fresh subtree must fit one ScxOp");
    Epoch::Guard g;
    std::size_t inserted = 0;
    std::uint64_t grp[Derived::kGroupCap] = {};
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t key = keys[i];
      // Interval-tracked plain-read walk to the insertion edge p→t;
      // everything the SCX consumes is re-derived from p's LLX snapshot.
      Node* p = self().root_ptr();
      std::size_t dir = self().root_dir(key);
      std::uint64_t glo = 0;
      std::uint64_t ghi = ~std::uint64_t{0};
      Derived::clamp_interval(p, dir, glo, ghi);
      Node* t = read_routed(p, dir);
      while (Derived::can_descend(t, key)) {
        p = t;
        dir = Derived::dir_of(p, key);
        Derived::clamp_interval(p, dir, glo, ghi);
        t = read_routed(p, dir);
      }
      // A walk that ends at keys[i]'s own leaf decides it, as get() would:
      // the key was present when the walk read that leaf (Proposition 2).
      // It is consumed with no LLX.
      if (Derived::is_leaf(t) && Derived::key_of(t) == key) {
        ++i;
        continue;
      }
      auto lp = llx(p);
      if (!lp.ok()) continue;  // frozen or finalized underfoot: re-walk
      t = to_node(lp.field(dir));
      if (Derived::can_descend(t, key)) continue;  // edge moved: re-walk
      // Collect the group from the snapshot-derived target. keys[i] lies
      // in [glo, ghi], so it is consumed or grouped: every pass advances.
      const std::size_t cap = self().group_cap(p, t);
      const bool t_leaf = Derived::is_leaf(t);
      const std::uint64_t tkey = t_leaf ? Derived::key_of(t) : 0;
      std::size_t m = 0;
      std::size_t j = i;
      for (; j < n && m < cap; ++j) {
        const std::uint64_t k = keys[j];
        // glo rises to the last grouped key, so a key below it is outside
        // the edge or descending: either way the next walk starts there.
        if (k < glo || k > ghi) break;
        if (Derived::can_descend(t, k)) break;  // would walk INTO t (Patricia)
        if ((t_leaf && k == tkey) || (m > 0 && k == glo)) {
          continue;  // already present / duplicate within the run: consume
        }
        grp[m++] = glo = k;
      }
      if (m == 0) {
        i = j;  // a run of present keys / duplicates: nothing to install
        continue;
      }
      auto lt = llx(t);
      if (!lt.ok()) continue;
      Op op;
      op.link(lp);
      op.remove(lt);
      auto repl = self().build_group(op, t, lt, grp, m, value);
      op.write(p, dir, repl);
      Node* installed = repl.get();
      if (op.commit()) {
        self().after_insert_all(grp, m, installed, p);
        inserted += m;
        i = j;
      }
      // Failed SCX: re-walk the same position (i unchanged).
    }
    return inserted;
  }

  // User-leaf count by the one whole-tree walk (container contract:
  // exact when quiescent, a snapshot of one serialization under
  // concurrency). size(), items() and depth_stats() read through the
  // instrumented acquire child loads, so they are memory-safe under
  // concurrent updates. Each holds ONE guard across the walk: a tree has
  // no stable spine to re-enter a guard per segment (the hash map's
  // bucket array does, see its occupancy()), so treat them as occasional
  // probes — a walk over millions of nodes pins this domain's epoch for
  // its duration.
  std::size_t size() const {
    Epoch::Guard g;
    std::size_t count = 0;
    walk([&](const Node* n, std::size_t) { count += user_leaf(n); });
    return count;
  }

  // Insert-if-absent (an existing key keeps its value); returns whether
  // the key was inserted. A one-key insert_all: one path, one set of pins.
  bool insert(std::uint64_t key, std::uint64_t value) {
    return insert_all(&key, 1, value) == 1;
  }

  // Removes key if present; returns whether it was removed.
  bool erase(std::uint64_t key) {
    Epoch::Guard g;
    for (;;) {
      // Walk to the leaf tracking grandparent and parent.
      Node* gp = nullptr;
      std::size_t gdir = 0;
      Node* p = self().root_ptr();
      std::size_t dir = self().root_dir(key);
      Node* n = read_routed(p, dir);
      while (!Derived::is_leaf(n)) {
        gp = p;
        gdir = dir;
        p = n;
        dir = Derived::dir_of(p, key);
        n = read_routed(p, dir);
      }
      // A walk that ends at another key's leaf decides the erase, as get()
      // would: the key was absent when the walk read that leaf
      // (Proposition 2), so it answers false with no LLX. A depth-1 leaf
      // (gp == nullptr) is a sentinel (every structure's sentinel
      // argument), so no user key is there either.
      if (gp == nullptr || Derived::key_of(n) != key) return false;
      auto lgp = llx(gp);
      if (!lgp.ok()) continue;
      Node* p2 = to_node(lgp.field(gdir));
      if (Derived::is_leaf(p2)) {
        // The subtree collapsed to a leaf since the walk: decide from it.
        if (Derived::key_of(p2) != key) return false;
        continue;  // key present but position stale: re-walk
      }
      auto lp = llx(p2);
      if (!lp.ok()) continue;
      const std::size_t d = Derived::dir_of(p2, key);
      Node* l = to_node(lp.field(d));
      if (!Derived::is_leaf(l)) continue;  // tree grew below p2: re-walk
      if (Derived::key_of(l) != key) return false;
      Node* s = to_node(lp.field(1 - d));
      auto ls = llx(s);
      if (!ls.ok()) continue;
      Op op;
      op.link(lgp);
      op.remove(lp);  // p2: finalized + retired by the builder
      op.remove(ls);  // s: copied, never re-linked (value-ABA door)
      auto scopy = self().copy_for_erase(op, p2, s, ls);
      op.orphan(l);  // unreachable once p2 is unlinked (DESIGN.md §8)
      op.write(gp, gdir, scopy);
      Node* installed = scopy.get();
      if (op.commit()) {
        self().after_erase(key, installed);
        return true;
      }
    }
  }

  // Ordered ⟨key, value⟩ list of user keys (the walk meets leaves in
  // key order). Exact when quiescent; range() is the linearizable scan.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    Epoch::Guard g;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    walk([&](const Node* n, std::size_t) {
      if (user_leaf(n)) {
        out.emplace_back(Derived::key_of(n), Derived::value_of(n));
      }
    });
    return out;
  }

  // Depth profile over user leaves. Exact when quiescent.
  TreeDepthStats depth_stats() const {
    Epoch::Guard g;
    TreeDepthStats st;
    std::uint64_t depth_sum = 0;
    walk([&](const Node* n, std::size_t depth) {
      if (!user_leaf(n)) return;
      ++st.user_leaves;
      depth_sum += depth;
      if (depth > st.max_depth) st.max_depth = depth;
    });
    if (st.user_leaves > 0) {
      st.avg_depth =
          static_cast<double>(depth_sum) / static_cast<double>(st.user_leaves);
    }
    return st;
  }

 protected:
  // The external-BST key order (DESIGN.md §11): internal nodes route left
  // iff key < n->key, so a left subtree holds keys < n->key ≤ the right
  // subtree's, and the keys kInf1 < kInf2 above every user key are the
  // sentinels. The BST and the chromatic tree inherit these; Patricia
  // hides the key-order ones with its bit routing. Every hook reads only
  // immutable fields, so routing and pruning cost no shared reads.
  static bool is_leaf(const Node* n) { return n->leaf(); }
  static std::uint64_t key_of(const Node* n) { return n->key; }
  // A leaf keeps its value in its left child slot. No SCX ever writes a
  // leaf's field, so the slot is immutable data, not a shared step: an
  // uncounted relaxed load (DESIGN.md §7 has the ordering argument).
  static std::uint64_t value_of(const Node* n) {
    return n->mut(Node::kLeft).load(mo::relaxed);
  }
  static std::size_t dir_of(const Node* n, std::uint64_t key) {
    return key < n->key ? Node::kLeft : Node::kRight;
  }
  // The root sentinel routes by key like any interior node.
  std::size_t root_dir(std::uint64_t key) const {
    return Derived::dir_of(self().root_ptr(), key);
  }
  // Insert's walk ends at the leaf.
  static bool can_descend(const Node* n, std::uint64_t /*key*/) {
    return !n->leaf();
  }
  static bool is_user_leaf(const Node* n) { return n->key < Derived::kInf1; }
  // range() pruning: may the dir subtree of interior n intersect [lo, hi]?
  static bool scan_dir(const Node* n, std::size_t dir, std::uint64_t lo,
                       std::uint64_t hi) {
    return dir == Node::kLeft ? lo < n->key : hi >= n->key;
  }
  // insert_all() interval tracking: narrow [lo, hi] to the keys routed
  // into n's dir subtree — left: hi ≤ key − 1 (which wraps to no bound at
  // key 0), right: lo ≥ key. Both bounds are masked by dir, not branched
  // on it: a branch here leads GCC to branch the walk's read_routed pick
  // on dir as well.
  static void clamp_interval(const Node* n, std::size_t dir, std::uint64_t& lo,
                             std::uint64_t& hi) {
    static_assert(Node::kLeft == 0 && Node::kRight == 1);
    const std::uint64_t right = std::uint64_t{0} - dir;  // all ones iff right
    const std::uint64_t top = (n->key - 1) | right;
    const std::uint64_t bottom = n->key & right;
    hi = top < hi ? top : hi;
    lo = bottom > lo ? bottom : lo;
  }

  // Hook defaults: structures without post-commit work (BST, Patricia)
  // inherit these and pay nothing. after_insert_all runs once per
  // committed insert group (keys: the group's new keys, ascending; repl:
  // the installed subtree; p: its parent); after_erase once per erase.
  void after_insert_all(const std::uint64_t*, std::size_t, Node*, Node*) {}
  void after_erase(std::uint64_t, Node*) {}

  // Capture a VLX witness for interior node n: accept only an info word
  // whose operation is DECIDED (see range()); help an in-progress one and
  // report failure so the caller restarts. Two instrumented reads — the
  // info word and its operation's state — and no LLX.
  static bool witness(const Node* n, std::vector<LinkedLlx>& w) {
    Stats::count_read();
    const std::uint64_t info = n->info_.load(mo::acquire);
    Stats::count_read();
    if (detail_state_of(info) == ScxRecord::kInProgress) {
      detail_help(info);
      return false;
    }
    w.push_back(LinkedLlx{const_cast<Node*>(n), info});
    return true;
  }

  // Quiescent teardown for the Derived destructor (retired-but-undrained
  // nodes are the policy's).
  void destroy_all() {
    walk([](Node* n, std::size_t) { Reclaim::dealloc(n); });
  }

  static Node* to_node(std::uint64_t w) { return reinterpret_cast<Node*>(w); }
  // One shared read of a child word, for reads whose direction is fixed
  // (range, walk(), consistency_error()).
  static Node* read_child(const Node* n, std::size_t dir) {
    Stats::count_read();
    // acquire: pairs with the committing SCX's release update-CAS — a
    // node's immutable fields are visible before its address is reachable.
    return to_node(n->mut(dir).load(mo::acquire));
  }
  // The key-routed step, for every walk that routes by key (get, the
  // multi_get lanes, insert_all, erase, chromatic cleanup): it loads both
  // child words beside the routing key and picks one with a conditional
  // move, so the child's load never waits on the compare and a level costs
  // one load latency, not two (DESIGN.md §11). One shared read, as
  // read_child: the sibling word is loaded but never followed (§5).
  static Node* read_routed(const Node* n, std::size_t dir) {
    static_assert(Node::kNumMut == 2, "routed walks descend binary trees");
    Stats::count_read();
    const std::uint64_t l = n->mut(Node::kLeft).load(mo::acquire);
    const std::uint64_t r = n->mut(Node::kRight).load(mo::acquire);
    return to_node(dir == Node::kLeft ? l : r);
  }

 private:
  // The one whole-tree walk, under size(), items(), depth_stats() and
  // destroy_all(): iterative depth-first (a degenerate tree would blow a
  // recursive walk's stack), left child first, so leaves come in key
  // order. visit(n, depth) runs only after n's children have been read,
  // so it may free n; depth counts edges below the root sentinel. Null
  // children are skipped, so Patricia's unused root slot needs no case.
  template <class Visit>
  void walk(Visit visit) const {
    std::vector<std::pair<Node*, std::size_t>> stack;
    const auto push_children = [&](const Node* n, std::size_t depth) {
      for (std::size_t c = Node::kNumMut; c-- > 0;) {
        if (Node* child = read_child(n, c)) stack.emplace_back(child, depth);
      }
    };
    push_children(self().root_ptr(), 1);
    while (!stack.empty()) {
      const auto [n, depth] = stack.back();
      stack.pop_back();
      if (!Derived::is_leaf(n)) push_children(n, depth + 1);
      visit(n, depth);
    }
  }

  bool user_leaf(const Node* n) const {
    return Derived::is_leaf(n) && self().is_user_leaf(n);
  }

  // range()'s per-thread witness set and right-child stack.
  struct ScanBuffers {
    std::vector<LinkedLlx> w;
    std::vector<const Node*> stack;
  };
  static ScanBuffers& scan_buffers() {
    thread_local ScanBuffers sb;
    return sb;
  }

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace llxscx
