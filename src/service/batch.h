// Batched operation surface (DESIGN.md §14) — the service-layer currency
// for multi-op dispatch.
//
// A BatchOp is one request (get / insert / erase on a key); a batch is a
// caller-owned array of them, answered positionally by an equal-length
// BatchResult array. The semantics are PER-KEY PROGRAM ORDER: ops on the
// same key take effect in their batch positions (both implementations
// below run a batch in order), while ops on different keys may interleave
// with concurrent threads exactly as individually issued ops would. A
// batch is NOT a transaction: no atomicity across entries is implied.
//
// container_apply_batch is the one entry point: containers that implement
// apply_batch get member dispatch (ShardedMap runs each op through its
// scalar verb, under that op's shard scope and guard, in batch order);
// every bare engine gets the generic driver below, which holds one epoch
// guard across the whole batch (inner per-op guards nest at depth > 0,
// i.e. no reservation store and no fence) and forwards consecutive
// get-runs through container_multi_get so engines with interleaved
// prefetching traversals overlap their cache misses.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ds/container_api.h"
#include "reclaim/epoch.h"

namespace llxscx {

enum class BatchOpKind : std::uint8_t { kGet, kInsert, kErase };

struct BatchOp {
  BatchOpKind kind;
  std::uint64_t key;
  std::uint64_t value;  // kInsert only; ignored otherwise

  static constexpr BatchOp get(std::uint64_t key) {
    return {BatchOpKind::kGet, key, 0};
  }
  static constexpr BatchOp insert(std::uint64_t key, std::uint64_t value) {
    return {BatchOpKind::kInsert, key, value};
  }
  static constexpr BatchOp erase(std::uint64_t key) {
    return {BatchOpKind::kErase, key, 0};
  }
};

// Positional answer: ok carries the op's bool exactly as the scalar verb
// would have returned it (contains / insert / erase).
struct BatchResult {
  bool ok = false;
};

template <typename C>
concept HasApplyBatch = requires(C& c, const BatchOp* ops, std::size_t n,
                                 BatchResult* out) {
  { c.apply_batch(ops, n, out) };
};

template <typename C>
  requires LlxScxContainer<C>
void container_apply_batch(C& c, const BatchOp* ops, std::size_t n,
                           BatchResult* out) {
  if constexpr (HasApplyBatch<C>) {
    c.apply_batch(ops, n, out);
  } else {
    // One reservation + fence for the whole batch; the per-op guards the
    // engine takes inside nest for free (depth bump only).
    Epoch::Guard g;
    constexpr std::size_t kRun = 64;  // get-run chunk; stack buffers
    std::uint64_t keys[kRun];
    bool hits[kRun];
    std::size_t i = 0;
    while (i < n) {
      if (ops[i].kind == BatchOpKind::kGet) {
        std::size_t r = 0;
        while (i + r < n && r < kRun && ops[i + r].kind == BatchOpKind::kGet) {
          keys[r] = ops[i + r].key;
          ++r;
        }
        container_multi_get(c, keys, r, hits);
        for (std::size_t j = 0; j < r; ++j) out[i + j].ok = hits[j];
        i += r;
      } else if (ops[i].kind == BatchOpKind::kInsert) {
        out[i].ok = c.insert(ops[i].key, ops[i].value);
        ++i;
      } else {
        out[i].ok = c.erase(ops[i].key);
        ++i;
      }
    }
  }
}

}  // namespace llxscx
