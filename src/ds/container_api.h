// Unified container contract (DESIGN.md §9) — the harness-facing face of
// every LLX/SCX container, in the uniform-rideable style of the Montage
// test harness: one signature set so tests, stresses, and E9's bench can
// drive any structure generically.
//
//   insert(key, value) — add an element; true iff a NEW key/element was
//                        added (hash map: upsert, false = value replaced;
//                        trees: insert-if-absent, false = key present and
//                        its old value kept; stack/queue: push/enqueue a
//                        ⟨key,value⟩ element, always true).
//   erase(key)         — remove; true iff something was removed. Ordered
//                        containers remove by key; LIFO/FIFO containers
//                        document key-independent removal (pop/dequeue the
//                        structural element and ignore the key).
//   contains(key)      — membership by key, plain-read traversal
//                        (Proposition 2: no LLX, no CAS).
//   size()             — element count by traversal. The pinned contract:
//                        QUIESCENTLY ACCURATE, NOT LINEARIZABLE. After
//                        every mutator has returned (workers joined),
//                        size() equals the exact element count — the
//                        conformance suite asserts this for every engine.
//                        Under concurrency it is only a snapshot of one
//                        serialization of the traversal: an op that
//                        overlaps the walk may or may not be counted, and
//                        no single instant need have held the returned
//                        value. Sharded front-ends (DESIGN.md §12) sum
//                        per-shard walks, which weakens the concurrent
//                        snapshot further (each addend is a separate
//                        serialization) but leaves the quiescent
//                        guarantee intact. Whole-structure walks with a
//                        stable spine (the hash map's size()/occupancy()
//                        over its bucket array) re-enter their
//                        reclamation Guard per segment; spineless walks
//                        (trees, the multiset's list) hold one guard and
//                        document size() as an occasional probe — a
//                        single guard across a multi-million-node walk
//                        pins its domain's epoch and stalls that
//                        domain's reclamation (DESIGN.md §10 rule 1).
//   kName              — stable identifier for tables and logs.
//
// StepCounts hooks: every conforming container routes ALL of its shared
// steps through the instrumented primitives (llx/scx via ScxOp, plain
// traversal reads via Stats::count_read), so `steps_of` below measures the
// exact shared-step cost of any operation — that is what lets the shape
// tests pin k+1 CAS / f+2 writes per container operation.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace llxscx {

template <typename C>
concept LlxScxContainer =
    requires(C c, const C& kc, std::uint64_t key, std::uint64_t value) {
      { C::kName } -> std::convertible_to<const char*>;
      { c.insert(key, value) } -> std::same_as<bool>;
      { c.erase(key) } -> std::same_as<bool>;
      { kc.contains(key) } -> std::same_as<bool>;
      { kc.size() } -> std::same_as<std::size_t>;
    };

// Batched membership (DESIGN.md §14). An engine MAY additionally provide
//   multi_get(keys, n, out)  — out[i] = contains(keys[i]), plain-read
// traversals only (Proposition 2 — same 0-CAS shape as contains), free to
// interleave the K lookups and prefetch frontier nodes for memory-level
// parallelism. Engines without it get the serial fallback below, so the
// whole engine matrix keeps one calling convention and the conformance
// suite can drive multi_get on all of them.
template <typename C>
concept HasMultiGet = requires(const C& kc, const std::uint64_t* keys,
                               std::size_t n, bool* out) {
  { kc.multi_get(keys, n, out) };
};

template <typename C>
  requires LlxScxContainer<C>
void container_multi_get(const C& c, const std::uint64_t* keys, std::size_t n,
                         bool* out) {
  if constexpr (HasMultiGet<C>) {
    c.multi_get(keys, n, out);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = c.contains(keys[i]);
  }
}

// --- range / scan / bulk-insert verbs (DESIGN.md §15) ----------------------
//
// Engines MAY additionally provide any of:
//   range(lo, hi, out)   — append every ⟨key, value⟩ with lo ≤ key ≤ hi to
//                          out in ASCENDING key order, return the count
//                          (ordered engines; the trees' is VLX-validated)
//   scan_n(limit, out)   — append up to `limit` pairs in NO particular
//                          order (unordered engines; the hash map's walks
//                          buckets under per-bucket guards)
//   insert_all(keys, n, value) — bulk insert of a run in any order,
//                          return how many keys were newly inserted (the
//                          trees amortize one SCX per leaf group; sorted
//                          runs are what group)
//   items()              — full ⟨key, value⟩ list, exact when quiescent
// The fallbacks below keep the verbs total over the whole engine matrix:
// containers without a native range answer from items() (sorted + filtered
// — quiescent-exact, like items() itself; the scans run concurrently with
// updates, so such an items() holds its own guard, as the stack's and the
// queue's do), and insert_all degrades to the scalar insert loop. So
// every engine keeps one calling convention and the conformance suite
// drives range/scan/bulk on all of them.

using RangeOut = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

template <typename C>
concept HasRange = requires(const C& kc, std::uint64_t lo, std::uint64_t hi,
                            RangeOut& out) {
  { kc.range(lo, hi, out) } -> std::same_as<std::size_t>;
};

template <typename C>
concept HasScanN = requires(const C& kc, std::size_t limit, RangeOut& out) {
  { kc.scan_n(limit, out) } -> std::same_as<std::size_t>;
};

template <typename C>
concept HasInsertAll = requires(C c, const std::uint64_t* keys, std::size_t n,
                                std::uint64_t value) {
  { c.insert_all(keys, n, value) } -> std::same_as<std::size_t>;
};

template <typename C>
concept HasItems = requires(const C& kc) {
  { kc.items() } -> std::same_as<RangeOut>;
};

// Ordered range over any engine. Native where available; otherwise a
// sorted filter of items() (quiescent-exact — the serial fallback).
template <typename C>
  requires LlxScxContainer<C>
std::size_t container_range(const C& c, std::uint64_t lo, std::uint64_t hi,
                            RangeOut& out) {
  if constexpr (HasRange<C>) {
    return c.range(lo, hi, out);
  } else {
    static_assert(HasItems<C>, "engine needs range() or items()");
    const std::size_t base = out.size();
    for (const auto& [k, v] : c.items()) {
      if (k >= lo && k <= hi) out.emplace_back(k, v);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
    return out.size() - base;
  }
}

// Bounded unordered scan over any engine (what the workload driver's Scan
// op uses on unordered engines).
template <typename C>
  requires LlxScxContainer<C>
std::size_t container_scan_n(const C& c, std::size_t limit, RangeOut& out) {
  if constexpr (HasScanN<C>) {
    return c.scan_n(limit, out);
  } else if constexpr (HasRange<C>) {
    const std::size_t base = out.size();
    c.range(0, ~std::uint64_t{0}, out);
    if (out.size() - base > limit) {
      out.resize(base + limit);
    }
    return out.size() - base;
  } else {
    static_assert(HasItems<C>, "engine needs scan_n(), range() or items()");
    const std::size_t base = out.size();
    for (const auto& [k, v] : c.items()) {
      if (out.size() - base >= limit) break;
      out.emplace_back(k, v);
    }
    return out.size() - base;
  }
}

// The workload driver's scan verb: a bounded window starting at `lo`.
// Ordered engines answer the interval [lo, lo+span−1] (saturating);
// engines that only sample answer scan_n(limit) — preferred over the
// range fallback so a hash-map scan stays a bounded bucket walk instead
// of a full-table sort per op.
template <typename C>
  requires LlxScxContainer<C>
std::size_t container_scan(const C& c, std::uint64_t lo, std::uint64_t span,
                           std::size_t limit, RangeOut& out) {
  if constexpr (HasScanN<C>) {
    return c.scan_n(limit, out);
  } else if constexpr (HasRange<C>) {
    const std::uint64_t hi =
        lo + (span - 1) < lo ? ~std::uint64_t{0} : lo + (span - 1);
    return c.range(lo, hi, out);
  } else {
    return container_scan_n(c, limit, out);
  }
}

// Bulk insert of a run in any order; serial fallback for engines without
// a native grouped build.
template <typename C>
  requires LlxScxContainer<C>
std::size_t container_insert_all(C& c, const std::uint64_t* keys,
                                 std::size_t n, std::uint64_t value) {
  if constexpr (HasInsertAll<C>) {
    return c.insert_all(keys, n, value);
  } else {
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (c.insert(keys[i], value)) ++inserted;
    }
    return inserted;
  }
}

// The StepCounts hook: run one (or a few) container operations and get the
// exact shared-step delta this thread spent on them. All zeros when built
// with LLXSCX_COUNT_STEPS=OFF — callers gate on kStepCounting.
template <typename Fn>
StepCounts steps_of(Fn&& fn) {
  const StepCounts before = Stats::my_snapshot();
  std::forward<Fn>(fn)();
  return Stats::my_snapshot() - before;
}

}  // namespace llxscx
