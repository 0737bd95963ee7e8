// Sharded KV front-end (DESIGN.md §12) — the millions-of-users shape.
//
// ShardedMap<Engine> partitions the 64-bit key space over N instances of
// any LlxScxContainer (hashmap, BST, chromatic, Patricia, multiset, …),
// in the parameter-server-over-swappable-KV-engines layering of PetPS's
// base_kv: the engine is a template parameter behind one uniform
// signature, so the same front-end serves every structure and the
// conformance suite drives ShardedMap<anything> exactly like the bare
// engine.
//
// Each shard owns its own reclamation domain (Epoch::Domain): the
// shard's engine is constructed, operated, and destroyed under an
// Epoch::DomainScope for that domain, so every Data-record the engine
// allocates or retires lives in the shard's own epoch. (SCX descriptors
// are not per shard: each thread reuses one slot for every SCX it runs,
// whatever the shard, and no descriptor is ever retired.) That makes shards
// independent failure domains for reclamation: a reader stalled inside
// shard 3 pins shard 3's limbo only, while shards 0–2 keep draining
// (asserted by test_sharded_map). Cross-shard helping cannot smuggle a
// record into the wrong domain because an SCX only freezes records of
// the structure it operates on, and a shard's structure is only ever
// touched under that shard's scope.
//
// Splitter policy: shard routing must not consume the bits the engine
// hashes next. The default HighBitsSplitter takes the TOP shard_bits of
// key × φ, and the hash map's bucket_of takes the LOW bits of fmix64(key),
// a different function: the two never share a window, so a shard's keys
// spread over all of its hash map's buckets instead of landing in a
// bucket-aligned stripe.
//
// ShardedMap itself satisfies LlxScxContainer: kName composes the engine
// name at compile time ("sharded+<engine>"), size() sums per-shard sizes
// (quiescently exact, like every engine's — the per-shard walks are
// serialized here, so under concurrency the sum mixes serializations
// and is a weaker snapshot than a single engine's; the contract in
// container_api.h is unchanged because it never promised linearizable
// counts). steps_of aggregation needs no help from this class: shards
// share the calling thread's StepCounts, so one steps_of around a
// front-end op measures the routed op plus the (zero-shared-step)
// splitter, and shape tests pin that it equals the bare engine's cost.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "ds/container_api.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/batch.h"

namespace llxscx {

// Default shard router. Multiplicative (Fibonacci) hash, keeping the TOP
// `shard_bits`. The hash map buckets by the low bits of fmix64(key), so
// sharded hashmaps re-use no routing bits at any table size.
// shard_bits == 0 maps everything to shard 0.
struct HighBitsSplitter {
  std::size_t operator()(std::uint64_t key, std::size_t shard_bits) const {
    if (shard_bits == 0) return 0;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - shard_bits));
  }
};

namespace detail {

constexpr std::size_t cstr_len(const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  return n;
}

// "sharded+" ⊕ Engine::kName, materialized at compile time so kName stays
// a plain const char* (the concept's currency) with no runtime setup.
template <class Engine>
constexpr auto sharded_name() {
  constexpr const char* kPrefix = "sharded+";
  std::array<char, cstr_len("sharded+") + cstr_len(Engine::kName) + 1> buf{};
  std::size_t i = 0;
  for (std::size_t j = 0; kPrefix[j] != '\0'; ++j) buf[i++] = kPrefix[j];
  for (std::size_t j = 0; Engine::kName[j] != '\0'; ++j)
    buf[i++] = Engine::kName[j];
  buf[i] = '\0';
  return buf;
}

template <class Engine>
inline constexpr auto kShardedNameBuf = sharded_name<Engine>();

}  // namespace detail

template <class Engine, class Splitter = HighBitsSplitter>
  requires LlxScxContainer<Engine>
class ShardedMap {
 public:
  static constexpr const char* kName = detail::kShardedNameBuf<Engine>.data();

  // shard_count is rounded UP to a power of two (the splitter hands out
  // shard_bits-sized prefixes, so non-power-of-two counts would need a
  // modulo that re-mixes bits the engines hash).
  explicit ShardedMap(std::size_t shard_count = 4, Splitter split = {})
      : split_(split) {
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < shard_count && bits < 16) ++bits;
    shard_bits_ = bits;
    const std::size_t n = std::size_t{1} << bits;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto sh = std::make_unique<Shard>();
      {
        // The engine allocates its sentinels in its own domain.
        Epoch::DomainScope scope(sh->domain);
        sh->engine.emplace();
      }
      shards_.push_back(std::move(sh));
    }
  }

  ~ShardedMap() {
    // Destroy each engine under its shard's scope so teardown retires land
    // in the right domain; ~Domain then drains it.
    for (auto& sh : shards_) {
      Epoch::DomainScope scope(sh->domain);
      sh->engine.reset();
    }
  }
  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  // --- the container contract, routed --------------------------------
  bool insert(std::uint64_t key, std::uint64_t value) {
    Shard& sh = shard_ref(key);
    Epoch::DomainScope scope(sh.domain);
    return sh.engine->insert(key, value);
  }
  bool erase(std::uint64_t key) {
    Shard& sh = shard_ref(key);
    Epoch::DomainScope scope(sh.domain);
    return sh.engine->erase(key);
  }
  bool contains(std::uint64_t key) const {
    const Shard& sh = shard_ref(key);
    Epoch::DomainScope scope(sh.domain);
    return sh.engine->contains(key);
  }
  // Sum of per-shard sizes, each under its shard's scope. Quiescently
  // exact; under concurrency each addend is a separate serialization.
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) {
      Epoch::DomainScope scope(sh->domain);
      total += sh->engine->size();
    }
    return total;
  }

  // --- batched surface (DESIGN.md §14) --------------------------------
  //
  // multi_get and apply_batch run batch.h's chunk step across shards: at
  // most kLanes keys at a time, one shard_for hash per key, one
  // DomainScope + epoch Guard per shard the chunk touches (the guard's
  // reservation store and seq_cst fence, DESIGN.md §2, amortize across
  // the chunk), and each key's lane on its own shard's engine, so the
  // chunk's cache misses overlap across shards. There is no sort, gather
  // or scatter: a serving batch is a few ops spread over every shard (8
  // over 4 in the serving benchmark), so per-shard groups would hold about
  // two ops each. insert_all, below, does group by shard.

  // out[i] = contains(keys[i]). Duplicate keys welcome; n == 0 is a no-op.
  // Engines without lanes answer each key by contains under its shard's
  // scope.
  void multi_get(const std::uint64_t* keys, std::size_t n, bool* out) const {
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::uint64_t* chunk = keys + base;
      const std::size_t m = std::min(kLanes, n - base);
      Shard* sh[kLanes];
      ChunkGuards guards;
      route_chunk(m, [chunk](std::size_t i) { return chunk[i]; }, sh, guards);
      if constexpr (HasLanes<Engine>) {
        run_lanes(
            [&sh](std::size_t i) -> const Engine& { return *sh[i]->engine; },
            chunk, m, out + base);
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          Epoch::DomainScope scope(sh[i]->domain);
          out[base + i] = sh[i]->engine->contains(chunk[i]);
        }
      }
    }
  }

  // Mixed-op batch, answered positionally by batch.h's chunk loop: each
  // op's lane on its own shard's engine, then, in batch order, each op
  // not answered by its lane through its scalar verb under its shard's
  // scope.
  void apply_batch(const BatchOp* ops, std::size_t n, BatchResult* out) {
    for (std::size_t base = 0; base < n; base += kLanes) {
      const BatchOp* chunk = ops + base;
      const std::size_t m = std::min(kLanes, n - base);
      Shard* sh[kLanes];
      ChunkGuards guards;
      route_chunk(m, [chunk](std::size_t i) { return chunk[i].key; }, sh,
                  guards);
      apply_chunk(
          chunk, m, out + base,
          [&sh](std::size_t i) -> const Engine& { return *sh[i]->engine; },
          [&](std::size_t i) {
            Epoch::DomainScope scope(sh[i]->domain);
            return apply_op(*sh[i]->engine, chunk[i]);
          });
    }
  }

  // --- range / scan / bulk verbs (DESIGN.md §15) -----------------------

  // Ordered range over ALL shards: the splitter is a hash, so any key
  // interval may touch every shard. Each shard answers container_range
  // under its own DomainScope + Guard, appending its slice (ascending by
  // contract) to one flat per-thread buffer, and the slice boundaries are
  // recorded. The k = 2^shard_bits runs then pair up evenly at every
  // level: log2(k) levels of branchless two-way merges, each run from
  // both ends at once (merge_runs), ping-pong between that buffer and a
  // second one, and the last level writes straight into `out` (k = 1 has
  // no level: its one slice lands in `out`). The result is ascending and
  // duplicate-free because the shards partition the key space, which is
  // also what makes the two-ended merge exact. Consistency is per shard
  // (each slice is one shard's range guarantee, VLX-validated on the
  // trees, with the engine's per-attempt read cost); the merge of slices
  // taken at different instants is NOT a cross-shard snapshot, same as
  // size(). The merge itself adds no shared read.
  //
  // Both buffers live in the thread's Scratch and keep their high-water
  // capacity (the largest window this thread has merged), so a warm call
  // allocates nothing when `out` has room. Nothing reached from here may
  // re-enter range on the same thread.
  std::size_t range(std::uint64_t lo, std::uint64_t hi, RangeOut& out) const {
    const std::size_t k = shards_.size();
    if (k == 1) return slice(0, lo, hi, out);
    Scratch& sc = scratch();
    sc.runs.clear();
    sc.run_end.resize(k + 1);
    sc.run_end[0] = 0;
    for (std::size_t s = 0; s < k; ++s) {
      slice(s, lo, hi, sc.runs);
      sc.run_end[s + 1] = sc.runs.size();
    }
    const std::size_t total = sc.runs.size();
    const std::size_t base = out.size();
    out.resize(base + total);
    sc.merged.resize(total);
    RangeOut* src = &sc.runs;
    RangeOut* spare = &sc.merged;
    for (std::size_t width = 1; width < k; width *= 2) {
      const bool last = 2 * width == k;
      RangeOut& dst = last ? out : *spare;
      const std::size_t at = last ? base : 0;
      for (std::size_t r = 0; r < k; r += 2 * width) {
        merge_runs(*src, sc.run_end[r], sc.run_end[r + width],
                   sc.run_end[r + 2 * width], dst, at + sc.run_end[r]);
      }
      spare = src;
      src = &dst;
    }
    return total;
  }

  // Unordered bounded scan, shard by shard — surfaced only when the
  // engine itself is an unordered scanner, so container_scan() keeps
  // preferring the ordered range on sharded trees.
  std::size_t scan_n(std::size_t limit, RangeOut& out) const
    requires HasScanN<Engine>
  {
    const std::size_t base = out.size();
    for (const auto& sh : shards_) {
      if (out.size() - base >= limit) break;
      Epoch::DomainScope scope(sh->domain);
      Epoch::Guard g;
      sh->engine->scan_n(limit - (out.size() - base), out);
    }
    return out.size() - base;
  }

  // Bulk insert of a run in any order: group keys by shard (the counting
  // sort is stable, so each shard's slice keeps the run's order — a
  // sorted run stays sorted, which is what the trees' insert_all groups),
  // then ONE DomainScope + Guard per non-empty shard around the engine's
  // own insert_all.
  std::size_t insert_all(const std::uint64_t* keys, std::size_t n,
                         std::uint64_t value) {
    if (n == 0) return 0;
    Scratch& sc = scratch();
    group_by_shard(sc, n, [&](std::size_t i) { return keys[i]; });
    sc.keys.resize(n);
    for (std::size_t j = 0; j < n; ++j) sc.keys[j] = keys[sc.order[j]];
    std::size_t inserted = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::size_t b = sc.start[s], e = sc.start[s + 1];
      if (b == e) continue;
      Shard& sh = *shards_[s];
      Epoch::DomainScope scope(sh.domain);
      Epoch::Guard g;
      inserted +=
          container_insert_all(*sh.engine, sc.keys.data() + b, e - b, value);
    }
    return inserted;
  }

  // --- service-layer surface ------------------------------------------
  std::size_t shard_count() const { return shards_.size(); }
  // The routing hash, exposed so loops over many keys (the batch chunks,
  // insert_all's grouping, external dispatchers) compute it ONCE per key
  // instead of re-hashing inside every contains/insert/erase call.
  std::size_t shard_for(std::uint64_t key) const {
    return split_(key, shard_bits_);
  }

  // Occupancy/stats hook: fn(index, const Engine&, DomainReclaimStats),
  // called under the shard's scope so engine walks pin the right epoch.
  template <class Fn>
  void for_each_shard(Fn&& fn) const {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& sh = *shards_[i];
      Epoch::DomainScope scope(sh.domain);
      fn(i, *sh.engine, sh.domain.counts());
    }
  }

  // The shard's reclamation domain, for tests that pin guards on one
  // shard and drain another (the independence property).
  const Epoch::Domain& shard_domain(std::size_t i) const {
    return shards_[i]->domain;
  }

  // Teardown/test verbs over every shard's domain.
  void drain_all() const {
    for (const auto& sh : shards_) sh->domain.drain();
  }
  std::uint64_t reclaim_outstanding() const {
    std::uint64_t total = 0;
    for (const auto& sh : shards_) total += sh->domain.outstanding();
    return total;
  }

 private:
  // Padded so two shards' hot engine state never shares a line; the
  // domain lives next to its engine (same locality story as per-shard
  // pools in the RecordManager plan).
  struct alignas(64) Shard {
    Epoch::Domain domain;
    std::optional<Engine> engine;  // constructed under the domain's scope
  };

  // A batch chunk's guards, one per shard it touches, each entered under
  // its shard's scope. Guards cannot move, so they are built in place.
  // An array of std::optional<Epoch::Guard> would do the same, but in the
  // serving benchmark GCC left the optional's destroy out of line, a call
  // on every guard exit where DESIGN.md §2 keeps the guard inline.
  class ChunkGuards {
   public:
    ChunkGuards() {}
    ~ChunkGuards() {
      for (std::size_t i = 0; i < n_; ++i) slot_[i].g.~Guard();
    }
    ChunkGuards(const ChunkGuards&) = delete;
    ChunkGuards& operator=(const ChunkGuards&) = delete;
    void enter(const Epoch::Domain& d) {
      Epoch::DomainScope scope(d);
      new (&slot_[n_++].g) Epoch::Guard;
    }

   private:
    union Slot {
      Slot() {}
      ~Slot() {}
      Epoch::Guard g;
    };
    Slot slot_[kLanes];
    std::size_t n_ = 0;
  };

  // The chunk step's routing: sh[i] = the shard of key_of(i), i < m ≤
  // kLanes, and one guard entered per distinct shard.
  template <class KeyOf>
  void route_chunk(std::size_t m, KeyOf&& key_of, Shard** sh,
                   ChunkGuards& guards) const {
    for (std::size_t i = 0; i < m; ++i) {
      sh[i] = shards_[shard_for(key_of(i))].get();
      if (std::find(sh, sh + i, sh[i]) == sh + i) guards.enter(sh[i]->domain);
    }
  }

  Shard& shard_ref(std::uint64_t key) { return *shards_[shard_for(key)]; }
  const Shard& shard_ref(std::uint64_t key) const {
    return *shards_[shard_for(key)];
  }

  // Per-thread grouping and merge buffers: insert_all and range allocate
  // nothing on the steady state (vectors keep their high-water capacity).
  struct Scratch {
    std::vector<std::uint32_t> shard_ix;  // shard id per key (one hash each)
    std::vector<std::uint32_t> order;     // key indices, grouped by shard
    std::vector<std::uint32_t> cursor;    // counting-sort write heads
    std::vector<std::uint32_t> start;     // group boundaries, size shards+1
    std::vector<std::uint64_t> keys;     // gathered keys
    RangeOut runs;                       // shard slices, back to back (range)
    RangeOut merged;                     // range's other merge buffer
    std::vector<std::size_t> run_end;    // slice boundaries, size shards+1
  };
  static Scratch& scratch() {
    thread_local Scratch sc;
    return sc;
  }

  // Shard s's slice of [lo, hi], appended to out under its own scope.
  std::size_t slice(std::size_t s, std::uint64_t lo, std::uint64_t hi,
                    RangeOut& out) const {
    const Shard& sh = *shards_[s];
    Epoch::DomainScope scope(sh.domain);
    Epoch::Guard g;
    return container_range(*sh.engine, lo, hi, out);
  }

  // Merges the ascending runs src[i, m) and src[m, e) into dst[d, d+e−i)
  // from both ends at once: each round the front moves the smaller of the
  // two run heads to dst's front and the back moves the larger of the two
  // run tails to dst's back, so the two selects form independent
  // dependency chains. Each step selects its source by index rather than
  // branching on the comparison, which is a coin flip on interleaved
  // shard slices. Rounds run while both runs still hold pairs; then the
  // one run left is copied into the gap between the two ends.
  //
  // Exact because the runs share no key (a key routes to one shard): when
  // the front takes a run's last remaining pair, that pair was smaller
  // than the other run's head, hence than its tail, so the back step of
  // the same round compares against it and never takes it again.
  static void merge_runs(const RangeOut& src, std::size_t i, std::size_t m,
                         std::size_t e, RangeOut& dst, std::size_t d) {
    std::size_t j = m;             // front heads: src[i], src[j]
    std::size_t ie = m, je = e;    // back tails: src[ie − 1], src[je − 1]
    std::size_t de = d + (e - i);  // dst's back, exclusive
    while (i < ie && j < je) {
      const bool right = src[j].first < src[i].first;
      dst[d++] = src[right ? j : i];
      j += right;
      i += !right;
      const bool left = src[je - 1].first < src[ie - 1].first;
      dst[--de] = src[left ? ie - 1 : je - 1];
      ie -= left;
      je -= !left;
    }
    while (i < ie) dst[d++] = src[i++];
    while (j < je) dst[d++] = src[j++];
  }

  // Stable counting sort of key indices [0, n) by shard: one shard_for
  // hash per key, ascending index within each group (what keeps a sorted
  // insert_all run sorted in every shard). key_of(i) supplies the i-th key.
  template <class KeyOf>
  void group_by_shard(Scratch& sc, std::size_t n, KeyOf&& key_of) const {
    const std::size_t ns = shards_.size();
    sc.shard_ix.resize(n);
    sc.order.resize(n);
    sc.start.assign(ns + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::uint32_t>(shard_for(key_of(i)));
      sc.shard_ix[i] = s;
      ++sc.start[s + 1];
    }
    for (std::size_t s = 0; s < ns; ++s) sc.start[s + 1] += sc.start[s];
    sc.cursor.assign(sc.start.begin(), sc.start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      sc.order[sc.cursor[sc.shard_ix[i]]++] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_bits_ = 0;
  Splitter split_;
};

}  // namespace llxscx
