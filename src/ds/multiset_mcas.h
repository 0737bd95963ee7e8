// The MCAS-based multiset E2 compares against: the same sorted-list shape
// as ds/multiset_llxscx.h, but every update is a baselines/mcas.h MCAS.
// This is the "build it from multi-word CAS" strawman the paper's §2
// costs out: a count change is a 2-word MCAS (5 CAS), a removal a 3-word
// MCAS (7 CAS), versus the k+1-CAS SCX shapes.
//
// It follows the same value-freshness discipline as the LLX/SCX list
// (keys and counts immutable, count changes replace the node, removal
// replaces the successor with a fresh copy, permanent tail sentinel), for
// the same reason: an MCAS helper that stalls before its phase-1 install
// CAS could otherwise re-install a long-decided descriptor when the
// word's value recurs, replaying the operation. With every installed
// pointer fresh — and epoch reclamation preventing address reuse while
// any potential helper holds a guard — a stale install CAS can never
// succeed.
//
// A replaced or removed node's next word is set to kDead, which (a) makes
// any in-flight MCAS that validated that word fail and (b) tells
// traversals to restart.
#pragma once

#include <cstdint>
#include <utility>

#include "baselines/mcas.h"
#include "reclaim/epoch.h"

namespace llxscx {

class McasMultiset {
 public:
  McasMultiset() : head_(0, 0, nullptr) {
    head_.next.raw_.store(reinterpret_cast<std::uint64_t>(new Node(TailTag{}))
                              << 1,
                          std::memory_order_relaxed);
  }
  ~McasMultiset() {
    Node* cur = raw_next(&head_);
    while (cur != nullptr) {
      Node* next = cur->tail ? nullptr : raw_next(cur);
      delete cur;
      cur = next;
    }
  }
  McasMultiset(const McasMultiset&) = delete;
  McasMultiset& operator=(const McasMultiset&) = delete;

  // A zero count is a no-op with no shared step, as in the LLX/SCX
  // multiset (DESIGN.md §6): no ⟨key, 0⟩ node and no MCAS.
  bool insert(std::uint64_t key, std::uint64_t count = 1) {
    if (count == 0) return true;
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;  // walked onto a removed node
      if (!cur->tail && cur->key == key) {
        const std::uint64_t nxt = cur->next.load();
        if (nxt == kDead) continue;
        Node* repl = new Node(key, cur->count + count, to_node(nxt));
        const Mcas::Entry e[2] = {{&pred->next, as_word(cur), as_word(repl)},
                                  {&cur->next, nxt, kDead}};
        if (Mcas::mcas(e, 2)) {
          Epoch::retire(cur);
          return true;
        }
        delete repl;
      } else {
        Node* n = new Node(key, count, cur);
        const Mcas::Entry e[1] = {{&pred->next, as_word(cur), as_word(n)}};
        if (Mcas::mcas(e, 1)) return true;
        delete n;
      }
    }
  }

  std::uint64_t erase(std::uint64_t key, std::uint64_t count = 1) {
    if (count == 0) return 0;
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;
      if (cur->tail || cur->key != key) return 0;
      const std::uint64_t nxt = cur->next.load();
      if (nxt == kDead) continue;
      if (cur->count > count) {
        Node* repl = new Node(key, cur->count - count, to_node(nxt));
        const Mcas::Entry e[2] = {{&pred->next, as_word(cur), as_word(repl)},
                                  {&cur->next, nxt, kDead}};
        if (Mcas::mcas(e, 2)) {
          Epoch::retire(cur);
          return count;
        }
        delete repl;
      } else {
        // Full removal: also replace the successor with a fresh copy so
        // pred.next never sees a previously-held value (header comment).
        Node* succ = to_node(nxt);
        const std::uint64_t snxt = succ->next.load();
        if (snxt == kDead) continue;
        Node* repl = succ->tail ? new Node(TailTag{})
                                : new Node(succ->key, succ->count,
                                           to_node(snxt));
        const std::uint64_t removed = cur->count;
        const Mcas::Entry e[3] = {{&pred->next, as_word(cur), as_word(repl)},
                                  {&cur->next, nxt, kDead},
                                  {&succ->next, snxt, kDead}};
        if (Mcas::mcas(e, 3)) {
          Epoch::retire(cur);
          Epoch::retire(succ);
          return removed;
        }
        delete repl;
      }
    }
  }

  std::uint64_t get(std::uint64_t key) const {
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;
      if (cur->tail || cur->key != key) return 0;
      return cur->count;
    }
  }

 private:
  // Below 2^62 (survives McasWord's shift encoding); never a node address.
  static constexpr std::uint64_t kDead = ~std::uint64_t{0} >> 2;

  struct TailTag {};

  struct Node {
    Node(std::uint64_t k, std::uint64_t c, Node* n)
        : key(k), count(c), tail(false),
          next(reinterpret_cast<std::uint64_t>(n)) {}
    explicit Node(TailTag) : key(0), count(0), tail(true), next(0) {}

    const std::uint64_t key;
    const std::uint64_t count;
    const bool tail;
    mutable McasWord next;  // node pointer as value, or kDead once removed
  };

  static std::uint64_t as_word(const Node* n) {
    return reinterpret_cast<std::uint64_t>(n);
  }
  static Node* to_node(std::uint64_t w) { return reinterpret_cast<Node*>(w); }

  // Teardown-only read: no helping, no instrumentation.
  static Node* raw_next(const Node* n) {
    return to_node(n->next.raw_.load(std::memory_order_relaxed) >> 1);
  }

  // Returns ⟨pred, cur⟩ with pred->key < key <= cur's position (cur may be
  // the tail sentinel), or ⟨null, null⟩ if the walk hit a removed node.
  std::pair<Node*, Node*> locate(std::uint64_t key) const {
    const Node* pred = &head_;
    std::uint64_t curw = pred->next.load();
    while (curw != kDead && !to_node(curw)->tail && to_node(curw)->key < key) {
      pred = to_node(curw);
      curw = pred->next.load();
    }
    if (curw == kDead) return {nullptr, nullptr};
    return {const_cast<Node*>(pred), to_node(curw)};
  }

  Node head_;
};

}  // namespace llxscx
