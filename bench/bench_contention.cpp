// Experiment E4 — progress under maximal contention (claim C-E, P2/P4).
//
// Every thread repeatedly performs an SCX over the SAME three records (the
// paper's worst case: all V sequences identical). Individual SCXs fail, but
// the progress properties require system-wide successes to keep flowing —
// a preempted mid-SCX thread cannot stall the others because helpers
// complete or abort the frozen operation.
//
// Reported per thread count: attempt throughput, success throughput,
// success rate, LLX failure rate, and help counts. The critical row-wise
// property is success/s > 0 at every level of contention.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "llxscx/llx_scx.h"
#include "reclaim/epoch.h"

namespace llxscx {
namespace {

struct Cell : DataRecord<1> {
  static constexpr std::size_t kValue = 0;
  explicit Cell(std::uint64_t v = 0) { mut(kValue).store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return mut(kValue).load(); }
};

void run() {
  std::printf("E4: all-threads-on-same-3-records contention, %d ms per row\n",
              bench::phase_millis());
  std::printf("claim (P4): SCX successes continue at every contention level\n\n");

  bench::Table t({"threads", "attempts/s", "success/s", "success %", "llx fail %",
                  "helps", "final==successes"});
  for (int threads : bench::thread_grid({1, 2, 4, 8, 16})) {
    Cell cells[3];
    std::vector<std::uint64_t> successes(threads, 0);
    const auto r = bench::run_phase(
        threads, [&](int tid, const std::atomic<bool>& stop) -> std::uint64_t {
          std::uint64_t attempts = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            Epoch::Guard g;
            LinkedLlx v[3];
            std::uint64_t snap0 = 0;
            bool ok = true;
            for (int c = 0; c < 3; ++c) {
              auto l = llx(&cells[c]);
              if (!l.ok()) {
                ok = false;
                break;
              }
              if (c == 0) snap0 = l.field(Cell::kValue);
              v[c] = l.link();
            }
            ++attempts;
            if (!ok) continue;
            if (scx(v, 3, 0, &cells[0].mut(Cell::kValue), snap0, snap0 + 1)) {
              ++successes[tid];
            }
          }
          return attempts;
        });

    std::uint64_t total_success = 0;
    for (auto s : successes) total_success += s;
    const double success_rate =
        r.total_ops ? 100.0 * total_success / r.total_ops : 0;
    const double llx_fail_rate =
        r.steps.llx_calls ? 100.0 * r.steps.llx_fail / r.steps.llx_calls : 0;
    t.add_row({std::to_string(threads), bench::fmt(r.ops_per_sec() / 1e6, 3) + "M",
               bench::fmt(total_success / r.seconds / 1e6, 3) + "M",
               bench::fmt(success_rate, 2), bench::fmt(llx_fail_rate, 2),
               bench::fmt_u64(r.steps.helps),
               cells[0].value() == total_success ? "yes" : "NO (BUG)"});
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
