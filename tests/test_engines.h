// The engine family the cross-engine suites run over (test_batch,
// test_container_conformance): the seven structures and ShardedMap around
// each, plus the traits that tell their semantic families apart. Traits
// are derived from the underlying engine; a sharded wrapper inherits its
// engine's semantics.
#pragma once

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "ds/queue_llxscx.h"
#include "ds/stack_llxscx.h"
#include "reclaim/epoch.h"
#include "service/sharded_map.h"

namespace llxscx {

using Containers = ::testing::Types<
    LlxScxMultiset, LlxScxStack, LlxScxQueue, LlxScxHashMap, LlxScxBst,
    LlxScxPatricia, LlxScxChromatic, ShardedMap<LlxScxMultiset>,
    ShardedMap<LlxScxStack>, ShardedMap<LlxScxQueue>,
    ShardedMap<LlxScxHashMap>, ShardedMap<LlxScxBst>,
    ShardedMap<LlxScxPatricia>, ShardedMap<LlxScxChromatic>>;

// The engine behind a front-end: identity for bare structures, Engine for
// ShardedMap<Engine>.
template <class C>
struct EngineOf {
  using type = C;
};
template <class E, class S>
struct EngineOf<ShardedMap<E, S>> {
  using type = E;
};
template <class C>
using engine_t = typename EngineOf<C>::type;

// Family detection off the engines' own extra verbs: sequence containers
// expose pop()/dequeue(), the multiset its counted erase(key, count).
template <class C>
constexpr bool kIsSeq = requires(engine_t<C> e) { e.pop(); } ||
                        requires(engine_t<C> e) { e.dequeue(); };
template <class C>
constexpr bool kIsBag = requires(engine_t<C> e) {
  { e.erase(1ull, 1ull) } -> std::same_as<std::uint64_t>;
};
// Maps and the multiset remove BY KEY; the stack and queue remove by
// position (pop/dequeue), so their oracle is global conservation.
template <class C>
constexpr bool kKeyedErase = !kIsSeq<C>;

// Drain the domains the container retires into, then report what is still
// outstanding. ShardedMap owns per-shard domains; bare engines retire into
// the thread's current (default) domain.
template <class C>
std::uint64_t drained_outstanding(const C& c) {
  if constexpr (requires {
                  c.drain_all();
                  c.reclaim_outstanding();
                }) {
    c.drain_all();
    return c.reclaim_outstanding();
  } else {
    (void)c;
    Epoch::drain_all_for_testing();
    return Epoch::outstanding();
  }
}

}  // namespace llxscx
