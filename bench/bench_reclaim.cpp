// Experiment E8 — reclamation policy ablation (§6 remark).
//
// The paper's implementation "relies on the existence of efficient garbage
// collection ... in other languages, such as C++, memory management is an
// issue." This repo substitutes a pluggable RecordManager policy
// (reclaim/record_manager.h); the ablation runs the same erase-heavy
// multiset churn under each policy and reports throughput plus retained
// garbage:
//
//   ebr   — the default: epoch-deferred recycling into per-thread
//           size-class banks (bounded garbage; steady-state node churn
//           stops paying malloc/free — pool hits are reported)
//   leaky — retire() drops nodes on the floor: footprint grows by one
//           node per removal (SCX descriptors are per-thread slots, so a
//           leaked node pins nothing else)
//
// allocs, pool hits and leaked are the workers' StepCounts, so they read
// zero in a -DLLXSCX_COUNT_STEPS=OFF build; freed and limbo come from the
// epoch domain and are exact in every build.
//
// --json=<file> additionally emits the table as machine-readable JSON
// (one object per row plus the build configuration), so successive
// changes can track a BENCH_*.json perf trajectory.
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "ds/multiset_llxscx.h"
#include "util/memorder.h"
#include "util/random.h"

namespace llxscx {
namespace {

struct CellResult {
  int threads = 0;
  const char* mode = "";
  double ops_per_sec = 0;
  std::uint64_t allocations = 0;
  std::uint64_t freed = 0;
  std::uint64_t outstanding_after_drain = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t leaked = 0;
};

template <class Reclaim>
CellResult run_cell(int threads) {
  Reclaim::drain();
  const std::uint64_t freed_before = Epoch::total_freed();
  CellResult res;
  res.threads = threads;
  res.mode = Reclaim::kName;
  {
    BasicLlxScxMultiset<Reclaim> ms;
    constexpr std::uint64_t kRange = 64;  // small: constant full-erase churn
    const auto r = bench::run_phase(
        threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
          Xoshiro256 rng(900 + t);
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key = 1 + rng.below(kRange);
            if (rng.percent(50)) {
              ms.insert(key, 1);
            } else {
              ms.erase(key, 1);
            }
            ++ops;
          }
          return ops;
        });
    // The workers' summed steps: what the policy cost the measured phase
    // (the drain below recycles on this thread, outside it). The leaky
    // policy's retires are its leaks.
    res.ops_per_sec = r.ops_per_sec();
    res.allocations = r.steps.allocations;
    res.pool_hits = r.steps.pool_hits;
    if constexpr (std::is_same_v<Reclaim, LeakyManager>) {
      res.leaked = r.steps.retires;
    }
  }
  Reclaim::drain();
  res.freed = Epoch::total_freed() - freed_before;
  res.outstanding_after_drain = Epoch::outstanding();
  return res;
}

bool emit_json(const char* path, const std::vector<CellResult>& cells) {
  return bench::emit_json_envelope(
      path, "bench_reclaim", cells.size(), [&](std::FILE* f, std::size_t i) {
        const CellResult& c = cells[i];
        std::fprintf(
            f,
            "{\"threads\": %d, \"mode\": \"%s\", \"ops_per_sec\": %.0f, "
            "\"allocs\": %llu, \"freed\": %llu, \"outstanding_after_drain\": "
            "%llu, \"pool_hits\": %llu, \"leaked\": %llu}",
            c.threads, c.mode, c.ops_per_sec,
            static_cast<unsigned long long>(c.allocations),
            static_cast<unsigned long long>(c.freed),
            static_cast<unsigned long long>(c.outstanding_after_drain),
            static_cast<unsigned long long>(c.pool_hits),
            static_cast<unsigned long long>(c.leaked));
      });
}

bool run(const char* json_path) {
  std::printf("E8: reclamation policy ablation — erase-heavy multiset churn, "
              "%d ms per row (orders: %s)\n",
              bench::phase_millis(), kRelaxedOrders ? "relaxed" : "seq_cst");
  std::printf("claim: EBR bounds garbage at ~zero after drain and "
              "recycles node storage per-thread; the leaky policy leaks "
              "exactly the removed nodes and frees nothing\n\n");

  std::vector<CellResult> cells;
  bench::Table t({"threads", "mode", "ops/s", "allocs", "freed via EBR",
                  "in limbo after drain", "pool hits", "leaked"});
  for (int threads : bench::thread_grid({1, 2, 4})) {
    cells.push_back(run_cell<EbrManager>(threads));
    cells.push_back(run_cell<LeakyManager>(threads));
  }
  for (const CellResult& c : cells) {
    t.add_row({std::to_string(c.threads), c.mode,
               bench::fmt(c.ops_per_sec / 1e6, 3) + "M",
               bench::fmt_u64(c.allocations), bench::fmt_u64(c.freed),
               bench::fmt_u64(c.outstanding_after_drain),
               bench::fmt_u64(c.pool_hits), bench::fmt_u64(c.leaked)});
  }
  t.print();
  std::printf("\nnote: 'leaky' rows free nothing: removed nodes are never "
              "freed (unbounded footprint in a long-running process), and "
              "SCX descriptors are per-thread slots that are never "
              "allocated. 'ebr' banks up to %zu drained blocks per size "
              "class and thread, and frees them at thread exit.\n",
              EbrManager::kBankCap);
  return json_path == nullptr || emit_json(json_path, cells);
}

}  // namespace
}  // namespace llxscx

int main(int argc, char** argv) {
  return llxscx::run(llxscx::bench::parse_json_flag(argc, argv)) ? 0 : 1;
}
