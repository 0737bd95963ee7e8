// Experiment E3 — disjoint-access parallelism (claim C-D, §3.2).
//
// "If SCXs being performed concurrently depend on LLXs of disjoint sets of
// Data-records, they all succeed."
//
// Two modes per thread count:
//   disjoint — each thread owns a private set of 4 records: SCX failure
//              rate must be exactly 0.
//   shared   — all threads attack the same 4 records: failures appear, but
//              aggregate successes continue (non-blocking progress).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "llxscx/llx_scx.h"
#include "reclaim/record_manager.h"
#include "util/random.h"

namespace llxscx {
namespace {

struct Cell : DataRecord<1> {
  static constexpr std::size_t kValue = 0;
  explicit Cell(std::uint64_t v = 0) { mut(kValue).store(v, std::memory_order_relaxed); }
};

struct ModeResult {
  double ops_per_sec;
  double success_pct;
  std::uint64_t helps;
};

ModeResult run_mode(int threads, bool disjoint) {
  constexpr int kCellsPerSet = 4;
  const int sets = disjoint ? threads : 1;
  std::vector<std::vector<Cell*>> cells(sets);
  for (auto& set : cells) {
    for (int c = 0; c < kCellsPerSet; ++c) set.push_back(new Cell(0));
  }
  std::vector<std::uint64_t> successes(threads, 0);

  const auto r = bench::run_phase(
      threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
        auto& mine = cells[disjoint ? t : 0];
        std::uint64_t attempts = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          Epoch::Guard g;
          LinkedLlx v[kCellsPerSet];
          std::uint64_t snap0 = 0;
          bool ok = true;
          for (int c = 0; c < kCellsPerSet; ++c) {
            auto l = llx(mine[c]);
            if (!l.ok()) {
              ok = false;
              break;
            }
            if (c == 0) snap0 = l.field(Cell::kValue);
            v[c] = l.link();
          }
          ++attempts;
          if (!ok) continue;
          if (scx(v, kCellsPerSet, 0, &mine[0]->mut(Cell::kValue), snap0, snap0 + 1)) {
            ++successes[t];
          }
        }
        return attempts;
      });

  std::uint64_t total_success = 0;
  for (auto s : successes) total_success += s;
  for (auto& set : cells) {
    Epoch::Guard g;
    for (auto* c : set) EbrManager::retire(c);
  }
  return ModeResult{r.ops_per_sec(),
                    r.total_ops ? 100.0 * total_success / r.total_ops : 0,
                    r.steps.helps};
}

void run() {
  std::printf("E3: disjoint-access parallelism — SCX over 4 records per op, "
              "%d ms per cell\n", bench::phase_millis());
  std::printf("claim: disjoint V-sets -> 100%% success; shared V-sets -> "
              "failures but continued aggregate progress\n\n");

  bench::Table t({"threads", "mode", "attempts/s", "success %", "helps"});
  for (int threads : bench::thread_grid({1, 2, 4, 8})) {
    for (bool disjoint : {true, false}) {
      const ModeResult m = run_mode(threads, disjoint);
      t.add_row({std::to_string(threads), disjoint ? "disjoint" : "shared",
                 bench::fmt(m.ops_per_sec / 1e6, 3) + "M",
                 bench::fmt(m.success_pct, 2), bench::fmt_u64(m.helps)});
    }
  }
  t.print();
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx

int main() {
  llxscx::run();
  return 0;
}
