// Lock-based multiset baselines for E2 (DESIGN.md §4).
//
//   CoarseMultiset   — one mutex around a std::map: the "default" a C++
//                      programmer reaches for, and the structure that
//                      collapses when concurrency matters.
//   FineListMultiset — hand-over-hand (lock-coupling) sorted linked list
//                      with a mutex per node: the strongest lock-based
//                      contender the paper's introduction concedes LLX/SCX
//                      only matches at low contention.
//
// Unlinked FineListMultiset nodes are retired through reclaim/epoch.h: a
// traverser can be blocked on the mutex of a node that a deleter has just
// unlinked, so nodes must not be freed in place. Such waiters revalidate
// the `removed` flag after acquiring the lock and restart.
//
// Both follow the LLX/SCX multiset's zero-count rule (DESIGN.md §6):
// insert(k, 0) returns true and erase(k, 0) returns 0, with no shared
// write and no ⟨k, 0⟩ entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>

#include "reclaim/epoch.h"

namespace llxscx {

class CoarseMultiset {
 public:
  bool insert(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return true;
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] += count;
    return true;
  }

  std::uint64_t erase(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return 0;
    const std::uint64_t removed = std::min(it->second, count);
    it->second -= removed;
    if (it->second == 0) map_.erase(it);
    return removed;
  }

  std::uint64_t get(std::uint64_t key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> map_;
};

class FineListMultiset {
 public:
  FineListMultiset() = default;
  ~FineListMultiset() {
    Node* cur = head_.next;
    while (cur != nullptr) {
      Node* next = cur->next;
      delete cur;
      cur = next;
    }
  }
  FineListMultiset(const FineListMultiset&) = delete;
  FineListMultiset& operator=(const FineListMultiset&) = delete;

  bool insert(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return true;
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;  // pred was unlinked underfoot
      std::unique_lock<std::mutex> pl(pred->mu, std::adopt_lock);
      if (cur != nullptr && cur->key == key) {
        std::lock_guard<std::mutex> cl(cur->mu);
        if (cur->removed) continue;
        cur->count += count;
        return true;
      }
      pred->next = new Node(key, count, cur);
      return true;
    }
  }

  std::uint64_t erase(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return 0;
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;
      std::unique_lock<std::mutex> pl(pred->mu, std::adopt_lock);
      if (cur == nullptr || cur->key != key) return 0;
      std::lock_guard<std::mutex> cl(cur->mu);
      if (cur->removed) continue;
      const std::uint64_t removed = std::min(cur->count, count);
      cur->count -= removed;
      if (cur->count == 0) {
        cur->removed = true;
        pred->next = cur->next;
        Epoch::retire(cur);
      }
      return removed;
    }
  }

  std::uint64_t get(std::uint64_t key) const {
    Epoch::Guard g;
    for (;;) {
      auto [pred, cur] = locate(key);
      if (pred == nullptr) continue;
      std::unique_lock<std::mutex> pl(pred->mu, std::adopt_lock);
      if (cur == nullptr || cur->key != key) return 0;
      std::lock_guard<std::mutex> cl(cur->mu);
      if (cur->removed) continue;
      return cur->count;
    }
  }

 private:
  struct Node {
    Node(std::uint64_t k, std::uint64_t c, Node* n)
        : key(k), count(c), next(n) {}
    const std::uint64_t key;
    std::uint64_t count;
    Node* next;
    bool removed = false;
    std::mutex mu;
  };

  // Hand-over-hand search: returns (pred, cur) with pred's mutex HELD and
  // pred->key < key <= cur->key (cur may be null). Returns {nullptr,
  // nullptr} if the traversal ran onto a removed node and must restart.
  std::pair<Node*, Node*> locate(std::uint64_t key) const {
    Node* pred = const_cast<Node*>(&head_);
    pred->mu.lock();
    Node* cur = pred->next;
    while (cur != nullptr && cur->key < key) {
      cur->mu.lock();
      if (cur->removed) {
        cur->mu.unlock();
        pred->mu.unlock();
        return {nullptr, nullptr};
      }
      pred->mu.unlock();
      pred = cur;
      cur = cur->next;
    }
    return {pred, cur};
  }

  // Sentinel; key unused (never compared).
  mutable Node head_{0, 0, nullptr};
};

}  // namespace llxscx
