// The generic workload driver (DESIGN.md §13) — runs ANY LlxScxContainer
// (§9) engine, bare or sharded, under a phased regime, and returns
// per-phase, per-op-type throughput and latency. bench_workload.cpp (E12)
// is a thin main over this header; test_workload drives it directly, so
// the measurement path the benches publish is itself under test.
//
// A regime is an ordered list of phases, each with its own op mix, key
// stream, and duration — the production shape the ROADMAP names:
//
//   grow    sequential-ramp stream, insert-heavy mix: fill the structure
//           to its working size with the dense ascending stream, on any
//           engine (a hash map doubles live through this phase).
//   steady  the profile's (distribution × mix) combination at size.
//   churn   balanced insert/erase pressure over the same distribution:
//           turnover at a steady size — the reclamation-heavy regime.
//
// Latency observability: every kLatencySampleEvery-th operation is timed
// (two steady_clock reads) into the thread's own per-op-type log-bucket
// histogram; all other operations pay zero clock cost, so the throughput
// number stays honest while the histograms still collect thousands of
// samples per second per thread. Histograms merge after the phase joins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ds/container_api.h"
#include "service/batch.h"
#include "util/barrier.h"
#include "util/random.h"
#include "workload/key_stream.h"
#include "workload/latency_histogram.h"
#include "workload/op_mix.h"

namespace llxscx::workload {

// 1-in-8 operations carry the two clock reads; the rest run bare. At the
// ~100 ns/op scale of these engines that bounds clock overhead to a few
// percent while a 200 ms phase still lands ~10^5 samples per type.
inline constexpr std::uint64_t kLatencySampleEvery = 8;

// Scan op shape (DESIGN.md §15): a bounded window of ~100 keys starting at
// the stream's key — YCSB-E's "short ranges" — answered by container_scan,
// which is the VLX-validated range() on ordered engines and a bounded
// bucket walk on the hash map.
inline constexpr std::uint64_t kScanSpan = 100;
inline constexpr std::size_t kScanLimit = 100;

struct PhaseSpec {
  const char* name = "steady";  // "grow" / "steady" / "churn" by convention
  OpMix mix;
  KeyStreamSpec stream;
  int millis = 200;
  // Dispatch width: 1 issues scalar ops; N > 1 issues N-op batches through
  // container_apply_batch (DESIGN.md §14), which is the batched fast path
  // on engines/front-ends that implement it and a faithful serial
  // equivalent everywhere else.
  int batch = 1;
};

struct RegimeSpec {
  std::vector<PhaseSpec> phases;
};

// The canonical grow → steady → churn regime over one (distribution, mix)
// combination: grow ramps sequentially into the combo's key space, steady
// runs the combo itself, churn keeps the distribution but swaps in the
// balanced insert/erase mix.
inline RegimeSpec make_regime(const KeyStreamSpec& steady_stream,
                              const OpMix& steady_mix, int grow_ms,
                              int steady_ms, int churn_ms, int batch = 1) {
  RegimeSpec r;
  r.phases.push_back({"grow", kGrowMix,
                      KeyStreamSpec::sequential_ramp(steady_stream.key_space),
                      grow_ms, batch});
  r.phases.push_back({"steady", steady_mix, steady_stream, steady_ms, batch});
  KeyStreamSpec churn_stream = steady_stream;
  r.phases.push_back({"churn", kChurnMix, churn_stream, churn_ms, batch});
  return r;
}

struct OpTypeResult {
  std::uint64_t ops = 0;
  LatencyHistogram latency;  // sampled 1-in-kLatencySampleEvery
};

struct PhaseResult {
  const char* phase = "";
  const char* mix = "";
  const char* stream = "";
  int threads = 0;
  int batch = 1;  // dispatch width the phase ran with (1 = scalar)
  double seconds = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t keys = 0;  // engine size() after the phase (quiescent, §9)
  OpTypeResult per_type[kNumOpTypes];

  double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(total_ops) / seconds : 0;
  }
  const OpTypeResult& type(OpType t) const {
    return per_type[static_cast<unsigned>(t)];
  }
};

namespace detail {

// One timed phase over a shared engine, on util/barrier.h's
// run_timed_phase (start line, stop flag, seconds = start line → stop
// flip). Each worker's key stream, mix dice and buffers are built in its
// setup, before the start line; what is left here is the op dispatch.
template <class Engine>
PhaseResult run_phase(Engine& c, const PhaseSpec& spec, int threads,
                      std::uint64_t seed_base) {
  const KeyStreamFactory streams(spec.stream);
  struct ThreadOut {
    std::uint64_t ops[kNumOpTypes] = {};
    LatencyHistogram latency[kNumOpTypes];
  };
  std::vector<ThreadOut> out(static_cast<std::size_t>(threads));
  const auto b = static_cast<std::size_t>(spec.batch);
  const double seconds = run_timed_phase(threads, spec.millis, [&](int t) {
    // Two independent per-thread deterministic sources: the key stream
    // and the mix dice (decoupled so changing a distribution never
    // re-rolls the op sequence). The batch and scan buffers live for the
    // whole phase; a cleared scan_buf keeps its capacity.
    const auto seed = seed_base + static_cast<std::uint64_t>(t);
    return [&, t, stream = streams.make(seed),
            dice = Xoshiro256(seed ^ 0x9E3779B97F4A7C15ull),
            ops = std::vector<BatchOp>(b),
            results = std::vector<BatchResult>(b),
            types = std::vector<OpType>(b),
            scan_buf = RangeOut{}](const std::atomic<bool>& stop) mutable {
      ThreadOut& mine = out[static_cast<std::size_t>(t)];
      if (spec.batch > 1) {
        // Batched dispatch: fill a batch from the same (mix dice, key
        // stream) sources — op-for-op the sequence a scalar worker would
        // have issued — then hand it to container_apply_batch. Latency
        // sampling times whole batches 1-in-kLatencySampleEvery and books
        // batch-time/batch per op (the honest per-op figure: each op in a
        // timed batch observed the batch's amortized cost), under the
        // `batched: true` flag in the JSON rows so percentile semantics
        // stay distinguishable from individually-timed scalar ops.
        std::uint64_t batches = 0;
        std::uint64_t scans = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          // Each round draws exactly b ops from the (dice, stream) pair —
          // the same sequence a scalar worker would issue. Scans have no
          // BatchOp kind (a batch is point ops; DESIGN.md §14), so a kScan
          // draw executes scalar inline without consuming a batch slot and
          // is timed individually; the remaining point ops form the batch.
          std::size_t nb = 0;
          for (std::size_t i = 0; i < b; ++i) {
            const OpType op = spec.mix.pick(dice);
            const std::uint64_t key = stream->next();
            if (op == OpType::kScan) {
              const bool scan_timed = (scans % kLatencySampleEvery) == 0;
              std::chrono::steady_clock::time_point s0;
              if (scan_timed) s0 = std::chrono::steady_clock::now();
              scan_buf.clear();
              container_scan(c, key, kScanSpan, kScanLimit, scan_buf);
              if (scan_timed) {
                const auto dt = std::chrono::steady_clock::now() - s0;
                mine.latency[static_cast<unsigned>(OpType::kScan)].record(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            dt)
                            .count()));
              }
              ++mine.ops[static_cast<unsigned>(OpType::kScan)];
              ++scans;
              continue;
            }
            types[nb] = op;
            switch (op) {
              case OpType::kRead:
                ops[nb] = BatchOp::get(key);
                break;
              case OpType::kInsert:
                ops[nb] = BatchOp::insert(key, 1);  // value convention below
                break;
              case OpType::kErase:
                ops[nb] = BatchOp::erase(key);
                break;
              case OpType::kScan:
                break;  // handled above
            }
            ++nb;
          }
          if (nb > 0) {
            const bool timed = (batches % kLatencySampleEvery) == 0;
            std::chrono::steady_clock::time_point t0;
            if (timed) t0 = std::chrono::steady_clock::now();
            container_apply_batch(c, ops.data(), nb, results.data());
            if (timed) {
              const auto dt = std::chrono::steady_clock::now() - t0;
              const auto per_op = static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                      .count() /
                  static_cast<std::int64_t>(nb));
              for (std::size_t i = 0; i < nb; ++i) {
                mine.latency[static_cast<unsigned>(types[i])].record(per_op);
              }
            }
            for (std::size_t i = 0; i < nb; ++i) {
              ++mine.ops[static_cast<unsigned>(types[i])];
            }
          }
          ++batches;
        }
        return;
      }
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const OpType op = spec.mix.pick(dice);
        const std::uint64_t key = stream->next();
        const bool timed = (n % kLatencySampleEvery) == 0;
        std::chrono::steady_clock::time_point t0;
        if (timed) t0 = std::chrono::steady_clock::now();
        switch (op) {
          case OpType::kRead:
            c.contains(key);
            break;
          case OpType::kInsert:
            // Value 1 across all engines — the conformance suite's
            // convention; for the multiset family the value is a COUNT
            // (insert(k, v) adds v copies), so anything else would grow
            // the structure by the key's magnitude per op.
            c.insert(key, 1);
            break;
          case OpType::kErase:
            c.erase(key);
            break;
          case OpType::kScan:
            scan_buf.clear();
            container_scan(c, key, kScanSpan, kScanLimit, scan_buf);
            break;
        }
        if (timed) {
          const auto dt = std::chrono::steady_clock::now() - t0;
          mine.latency[static_cast<unsigned>(op)].record(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                      .count()));
        }
        ++mine.ops[static_cast<unsigned>(op)];
        ++n;
      }
    };
  });

  PhaseResult r;
  r.phase = spec.name;
  r.mix = spec.mix.name;
  r.stream = spec.stream.name();
  r.threads = threads;
  r.batch = spec.batch;
  r.seconds = seconds;
  for (const ThreadOut& o : out) {
    for (unsigned i = 0; i < kNumOpTypes; ++i) {
      r.per_type[i].ops += o.ops[i];
      r.per_type[i].latency.merge(o.latency[i]);
      r.total_ops += o.ops[i];
    }
  }
  return r;
}

}  // namespace detail

// Runs every phase of `spec` back to back against one engine instance.
// Seeds are derived per (phase, thread) so a regime's full op sequence is
// deterministic per seed_base (modulo thread interleaving, which is the
// point of the exercise).
template <class Engine>
  requires LlxScxContainer<Engine>
std::vector<PhaseResult> run_regime(Engine& c, const RegimeSpec& spec,
                                    int threads,
                                    std::uint64_t seed_base = 0x12D) {
  std::vector<PhaseResult> results;
  results.reserve(spec.phases.size());
  std::uint64_t phase_seed = seed_base;
  for (const PhaseSpec& phase : spec.phases) {
    results.push_back(detail::run_phase(c, phase, threads, phase_seed));
    // Workers have joined: size() is quiescently exact here (§9 contract).
    results.back().keys = c.size();
    phase_seed += 0x1000;  // disjoint per-phase seed windows
  }
  return results;
}

}  // namespace llxscx::workload
