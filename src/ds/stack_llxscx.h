// Treiber-shaped lock-free stack on LLX/SCX (E9): the list engine
// (list_llxscx.h) with every update at the head.
//
// Structure: head sentinel Data-record whose single mutable field is the
// top pointer, then a singly linked chain of immutable ⟨key, value⟩ nodes
// ending in the engine's tail sentinel (never null — the empty stack is
// also represented by a concrete address; unlike the BST's truly
// permanent sentinels, the tail is itself replaced by a fresh copy
// whenever a pop consumes the last element, so its address is NOT
// stable).
//
// Shapes (DESIGN.md §9), the engine's k=1 and k=3 at a pinned head:
//   push — insert_before: SCX(V=⟨head⟩,            R=∅,           head.top ← n)
//          k=1 ⇒ 2 CAS, f=0 ⇒ 2 writes, 1 alloc (n)
//   pop  — remove:        SCX(V=⟨head, top, succ⟩, R=⟨top, succ⟩, head.top ← succ′)
//          k=3 ⇒ 4 CAS, f=2 ⇒ 4 writes, 1 alloc (succ′)
//
// Why pop copies the successor instead of re-linking it: succ's address
// was head.top once already (when succ was pushed), so writing it back
// would re-open the value-ABA door the §3 usage assumption closes. So pop
// is the multiset's full-delete shape: it freezes succ, installs a fresh
// copy succ′ (a fresh tail when succ is the tail), and the builder
// retires ⟨top, succ⟩ exactly once.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/list_llxscx.h"

namespace llxscx {

template <class Reclaim = EbrManager>
class BasicLlxScxStack {
  using L = List<Reclaim>;

 public:
  using Node = ListNode;
  static constexpr const char* kName = "llxscx-stack";

  bool push(std::uint64_t key, std::uint64_t value) {
    Epoch::Guard g;
    for (;;) {
      const auto s = L::pin(list_.head());
      if (s && L::insert_before(*s, key, value)) return true;
    }
  }
  bool push(std::uint64_t v) { return push(v, v); }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> pop() {
    Epoch::Guard g;
    for (;;) {
      const auto s = L::pin(list_.head());
      if (!s) continue;
      const Node* top = s->cur;
      if (!top->item()) return std::nullopt;
      if (L::remove(*s)) return std::make_pair(top->key, top->value);
    }
  }

  // Unified container interface (DESIGN.md §9). erase() is the stack's
  // structural removal — it pops the TOP element and ignores the key
  // (LIFO containers remove by position, not by key).
  bool insert(std::uint64_t key, std::uint64_t value) {
    return push(key, value);
  }
  bool erase(std::uint64_t /*key*/) { return pop().has_value(); }

  // Guarded walks from the top (the engine's), safe under concurrent
  // push/pop; exact when quiescent. items() is top-to-bottom, the scan
  // verbs' fallback (container_api.h).
  bool contains(std::uint64_t key) const { return list_.contains(key); }
  std::size_t size() const { return list_.size(); }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    return list_.items();
  }

 private:
  L list_;
};

using LlxScxStack = BasicLlxScxStack<EbrManager>;

}  // namespace llxscx
