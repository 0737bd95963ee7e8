// Batched operation surface (DESIGN.md §14) — the service-layer currency
// for multi-op dispatch.
//
// A BatchOp is one request (get / insert / erase on a key); a batch is a
// caller-owned array of them, answered positionally by an equal-length
// BatchResult array. The semantics are PER-KEY PROGRAM ORDER: ops on the
// same key take effect in their batch positions, updates in batch order
// with each other, while ops on different keys may interleave with
// concurrent threads, and a get may take effect before an earlier update
// of its chunk on another key. A batch is NOT a transaction: no atomicity
// across entries is implied.
//
// container_apply_batch is the one entry point: containers that implement
// apply_batch get member dispatch (ShardedMap), every bare engine gets the
// generic path below. Both run the one batch loop, apply_chunk: chunks
// of at most kLanes ops, each walked first as interleaved lanes over every
// op (gets and updates alike; engines without lanes skip the walk), then
// answered in batch order, a get by its lane unless an earlier op of the
// chunk names its key, every other op by its scalar verb. The generic
// path holds one epoch guard across the whole batch, ShardedMap one per
// shard a chunk touches; the per-op guards the verbs take inside nest at
// depth > 0 (no reservation store, no fence).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

// The scalar verb op names, run on c: the answer at op's position.
template <class C>
bool apply_op(C& c, const BatchOp& op) {
  switch (op.kind) {
    case BatchOpKind::kGet:
      return c.contains(op.key);
    case BatchOpKind::kInsert:
      return c.insert(op.key, op.value);
    case BatchOpKind::kErase:
      return c.erase(op.key);
  }
  return false;
}

// One chunk of the batch loop: m ≤ kLanes ops, op i on engine_of(i),
// under guards the caller holds on every engine the chunk touches. First
// every op's search path is walked as an interleaved lane (run_lanes), so
// the paths' cache misses overlap. Then, in batch order, a get whose key
// no earlier op of the chunk names is answered by its lane: it takes
// effect during the lanes, after every op of the earlier chunks and
// before any op of this chunk, none of which precedes it on its key.
// Every other op is answered by run(i), its scalar verb, so updates keep
// their SCX shapes and their order, and a get behind an op on its own key
// sees that op. The lanes add only a contains' reads per update.
template <class EngineOf, class Run>
void apply_chunk(const BatchOp* ops, std::size_t m, BatchResult* out,
                 EngineOf&& engine_of, Run&& run) {
  using E = std::remove_cvref_t<decltype(engine_of(std::size_t{0}))>;
  if constexpr (HasLanes<E>) {
    std::uint64_t keys[kLanes] = {};
    bool hits[kLanes];
    for (std::size_t i = 0; i < m; ++i) keys[i] = ops[i].key;
    run_lanes(engine_of, keys, m, hits);
    for (std::size_t i = 0; i < m; ++i) {
      const bool by_lane = ops[i].kind == BatchOpKind::kGet &&
                           std::find(keys, keys + i, keys[i]) == keys + i;
      out[i].ok = by_lane ? hits[i] : run(i);
    }
  } else {
    for (std::size_t i = 0; i < m; ++i) out[i].ok = run(i);
  }
}

template <typename C>
  requires LlxScxContainer<C>
void container_apply_batch(C& c, const BatchOp* ops, std::size_t n,
                           BatchResult* out) {
  if constexpr (HasApplyBatch<C>) {
    c.apply_batch(ops, n, out);
  } else {
    // One reservation + fence for the whole batch.
    Epoch::Guard g;
    for (std::size_t base = 0; base < n; base += kLanes) {
      const BatchOp* chunk = ops + base;
      apply_chunk(chunk, std::min(kLanes, n - base), out + base,
                  [&c](std::size_t) -> const C& { return c; },
                  [&](std::size_t i) { return apply_op(c, chunk[i]); });
    }
  }
}

}  // namespace llxscx
