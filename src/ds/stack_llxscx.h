// Treiber-shaped lock-free stack on LLX/SCX (E9), built entirely through
// the ScxOp builder and the §8 fresh-node discipline.
//
// Structure: head sentinel Data-record whose single mutable field is the
// top pointer, then a singly linked chain of immutable ⟨key, value⟩ nodes
// ending in a bottom sentinel (never null — the empty stack is also
// represented by a concrete address; unlike the BST's truly permanent
// sentinels, the bottom node is itself replaced by a fresh copy whenever
// a pop consumes it, so its address is NOT stable).
//
// Shapes (DESIGN.md §9):
//   push      — SCX(V=⟨head⟩,            R=∅,           head.top ← n)
//               k=1 ⇒ 2 CAS, f=0 ⇒ 2 writes, 1 alloc (n)
//   pop       — SCX(V=⟨head, top, succ⟩, R=⟨top, succ⟩, head.top ← succ′)
//               k=3 ⇒ 4 CAS, f=2 ⇒ 4 writes, 1 alloc (succ′)
//
// Why pop copies the successor instead of re-linking it: succ's address
// was head.top once already (when succ was pushed), so writing it back
// would re-open the value-ABA door the §3 usage assumption closes. Exactly
// like the multiset's full-delete, pop freezes succ, installs a fresh copy
// succ′, and the builder retires ⟨top, succ⟩ exactly once. Popping past
// the bottom sentinel replaces it with a fresh bottom sentinel, the same
// way the multiset refreshes its tail.
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

struct StackNode : DataRecord<1> {
  static constexpr std::size_t kNext = 0;

  struct BottomTag {};

  StackNode(std::uint64_t k, std::uint64_t v, StackNode* n)
      : key(k), value(v), bottom(false) {
    mut(kNext).store(reinterpret_cast<std::uint64_t>(n),
                     std::memory_order_relaxed);
  }
  explicit StackNode(BottomTag) : key(0), value(0), bottom(true) {}

  const std::uint64_t key;
  const std::uint64_t value;
  const bool bottom;  // empty-stack sentinel, refreshed by pop-to-empty
};

template <class Reclaim = EbrManager>
class BasicLlxScxStack {
 public:
  using Node = StackNode;
  static constexpr const char* kName = "llxscx-stack";

  BasicLlxScxStack() {
    head_.mut(Node::kNext).store(
        reinterpret_cast<std::uint64_t>(
            Reclaim::template alloc<Node>(Node::BottomTag{})),
        std::memory_order_relaxed);
  }
  ~BasicLlxScxStack() {
    Node* cur = next_of(&head_);
    while (cur != nullptr) {
      Node* next = cur->bottom ? nullptr : next_of(cur);
      Reclaim::dealloc(cur);
      cur = next;
    }
  }
  BasicLlxScxStack(const BasicLlxScxStack&) = delete;
  BasicLlxScxStack& operator=(const BasicLlxScxStack&) = delete;

  bool push(std::uint64_t key, std::uint64_t value) {
    Epoch::Guard g;
    for (;;) {
      auto lh = llx(&head_);
      if (!lh.ok()) continue;
      ScxOp<Node, Reclaim> op;
      op.link(lh);
      auto n = op.freshly(key, value, to_node(lh.field(Node::kNext)));
      op.write(&head_, Node::kNext, n);
      if (op.commit()) return true;
    }
  }
  bool push(std::uint64_t v) { return push(v, v); }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> pop() {
    Epoch::Guard g;
    for (;;) {
      auto lh = llx(&head_);
      if (!lh.ok()) continue;
      Node* top = to_node(lh.field(Node::kNext));
      if (top->bottom) return std::nullopt;
      auto lt = llx(top);
      if (!lt.ok()) continue;
      Node* succ = to_node(lt.field(Node::kNext));
      auto ls = llx(succ);
      if (!ls.ok()) continue;
      const std::uint64_t k = top->key;
      const std::uint64_t v = top->value;
      ScxOp<Node, Reclaim> op;
      op.link(lh);
      op.remove(lt);  // top
      op.remove(ls);  // succ: copied, never re-linked (see header)
      auto repl = succ->bottom
                      ? op.freshly(Node::BottomTag{})
                      : op.freshly(succ->key, succ->value,
                                   to_node(ls.field(Node::kNext)));
      op.write(&head_, Node::kNext, repl);
      if (op.commit()) return std::make_pair(k, v);
    }
  }

  // Unified container interface (DESIGN.md §9). erase() is the stack's
  // structural removal — it pops the TOP element and ignores the key
  // (LIFO containers remove by position, not by key).
  bool insert(std::uint64_t key, std::uint64_t value) {
    return push(key, value);
  }
  bool erase(std::uint64_t /*key*/) { return pop().has_value(); }

  bool contains(std::uint64_t key) const {
    Epoch::Guard g;
    for (const Node* cur = next_of(&head_); !cur->bottom; cur = next_of(cur)) {
      if (cur->key == key) return true;
    }
    return false;
  }

  std::size_t size() const {
    Epoch::Guard g;
    std::size_t n = 0;
    for (const Node* cur = next_of(&head_); !cur->bottom; cur = next_of(cur)) {
      ++n;
    }
    return n;
  }

  // Top-to-bottom ⟨key, value⟩ list, the scan verbs' fallback
  // (container_api.h). Guarded like contains() and size(), so safe under
  // concurrent push/pop; exact only when quiescent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items() const {
    Epoch::Guard g;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const Node* cur = next_of(&head_); !cur->bottom; cur = next_of(cur)) {
      out.emplace_back(cur->key, cur->value);
    }
    return out;
  }

 private:
  static Node* to_node(std::uint64_t w) { return reinterpret_cast<Node*>(w); }
  static Node* next_of(const Node* n) {
    Stats::count_read();
    // acquire: pairs with the committing SCX's release update-CAS — a
    // node's immutable fields are visible before its address is reachable.
    return to_node(n->mut(Node::kNext).load(mo::acquire));
  }

  // Head sentinel: its single mutable field is the top-of-stack pointer.
  Node head_{0, 0, nullptr};
};

using LlxScxStack = BasicLlxScxStack<EbrManager>;

}  // namespace llxscx
