// Experiment E1 — the paper's analytic step-count claims, measured.
//
//   C-A (§1): an uncontended SCX linked to k LLXs finalizing f records
//             executes k+1 CAS and f+2 writes.
//   C-B (§2): k-word CAS (Sundell-style, the paper's comparator) costs
//             2k+1 CAS per uncontended success.
//   C-C (§1): VLX over k records costs k shared reads.
//   KCSS (§2): 1 CAS + (2k−1) reads, obstruction-free only.
//
// Single-threaded (uncontended by construction); counts are exact because
// the primitives increment per-thread step counters on every shared access.
#include <cstdio>
#include <vector>

#include "baselines/kcss.h"
#include "baselines/mcas.h"
#include "bench/bench_common.h"
#include "llxscx/llx_scx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"

namespace llxscx {
namespace {

struct Cell : DataRecord<1> {
  static constexpr std::size_t kValue = 0;
  explicit Cell(std::uint64_t v = 0) { mut(kValue).store(v, std::memory_order_relaxed); }
};

StepCounts measure_scx(int k, int f) {
  Epoch::Guard g;
  std::vector<Cell*> cells;
  for (int i = 0; i < k; ++i) cells.push_back(EbrManager::alloc<Cell>(1));
  LinkedLlx v[ScxRecord::kMaxV];
  for (int i = 0; i < k; ++i) v[i] = llx(cells[i]).link();
  std::uint32_t mask = 0;
  for (int i = k - f; i < k; ++i) mask |= 1u << i;
  const StepCounts before = Stats::my_snapshot();
  scx(v, k, mask, &cells[0]->mut(Cell::kValue), 1, 2);
  const StepCounts d = Stats::my_snapshot() - before;
  for (auto* c : cells) EbrManager::retire(c);
  return d;
}

StepCounts measure_vlx(int k) {
  Epoch::Guard g;
  std::vector<Cell*> cells;
  LinkedLlx v[ScxRecord::kMaxV];
  for (int i = 0; i < k; ++i) {
    cells.push_back(EbrManager::alloc<Cell>(1));
    v[i] = llx(cells[i]).link();
  }
  const StepCounts before = Stats::my_snapshot();
  vlx(v, k);
  const StepCounts d = Stats::my_snapshot() - before;
  for (auto* c : cells) EbrManager::retire(c);
  return d;
}

StepCounts measure_mcas(int k) {
  Epoch::Guard g;
  std::vector<McasWord*> words;
  std::vector<Mcas::Entry> entries;
  for (int i = 0; i < k; ++i) {
    words.push_back(new McasWord(1));
    entries.push_back({words.back(), 1, 2});
  }
  const StepCounts before = Stats::my_snapshot();
  Mcas::mcas(entries.data(), k);
  const StepCounts d = Stats::my_snapshot() - before;
  for (auto* w : words) delete w;
  return d;
}

StepCounts measure_kcss(int k) {
  std::vector<LlScWord*> words;
  for (int i = 0; i < k; ++i) words.push_back(new LlScWord(1));
  std::vector<Kcss::Compare> cmp;
  for (int i = 1; i < k; ++i) cmp.push_back({words[i], 1});
  const StepCounts before = Stats::my_snapshot();
  Kcss::kcss(words[0], 1, 2, cmp.data(), cmp.size());
  const StepCounts d = Stats::my_snapshot() - before;
  for (auto* w : words) delete w;
  return d;
}

void run() {
  std::printf("E1: uncontended step counts per operation over k records\n");
  std::printf("paper claims: SCX = k+1 CAS, f+2 writes | MCAS = 2k+1 CAS | "
              "VLX = k reads | KCSS = 1 CAS, 2k-1 reads\n\n");

  bench::Table t({"k", "SCX cas (claim)", "SCX writes f=0 (claim)",
                  "SCX writes f=k-1 (claim)", "MCAS cas (claim)",
                  "VLX reads (claim)", "KCSS cas", "KCSS reads (claim)"});
  for (int k = 1; k <= 8; ++k) {
    const StepCounts s0 = measure_scx(k, 0);
    const StepCounts sf = measure_scx(k, k - 1);
    const StepCounts m = measure_mcas(k);
    const StepCounts vl = measure_vlx(k);
    const StepCounts kc = measure_kcss(k);
    t.add_row({std::to_string(k),
               bench::fmt_u64(s0.cas) + " (" + std::to_string(k + 1) + ")",
               bench::fmt_u64(s0.shared_writes) + " (2)",
               bench::fmt_u64(sf.shared_writes) + " (" + std::to_string(k - 1 + 2) + ")",
               bench::fmt_u64(m.cas) + " (" + std::to_string(2 * k + 1) + ")",
               bench::fmt_u64(vl.shared_reads) + " (" + std::to_string(k) + ")",
               bench::fmt_u64(kc.cas),
               bench::fmt_u64(kc.shared_reads) + " (" + std::to_string(2 * k - 1) + ")"});
  }
  t.print();

  // Wall-clock comparison at k = 3 (the multiset's delete shape).
  std::printf("\nwall-clock, k=3 (multiset full-delete shape), single thread:\n");
  bench::Table wt({"primitive", "ops/s"});
  {
    const auto r = bench::run_phase(1, [](int, const std::atomic<bool>& stop) {
      Epoch::Guard g;
      Cell a(1), b(1), c(1);
      Cell* cells[3] = {&a, &b, &c};
      std::uint64_t ops = 0, val = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        LinkedLlx v[3];
        for (int i = 0; i < 3; ++i) v[i] = llx(cells[i]).link();
        if (scx(v, 3, 0, &a.mut(Cell::kValue), val, val + 1)) ++val;
        ++ops;
      }
      return ops;
    });
    wt.add_row({"LLX x3 + SCX", bench::fmt(r.ops_per_sec() / 1e6, 3) + "M"});
  }
  {
    const auto r = bench::run_phase(1, [](int, const std::atomic<bool>& stop) {
      Epoch::Guard g;
      McasWord a(1), b(1), c(1);
      std::uint64_t ops = 0, val = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        Mcas::Entry e[] = {{&a, val, val + 1}, {&b, val, val + 1}, {&c, val, val + 1}};
        if (Mcas::mcas(e, 3)) ++val;
        ++ops;
      }
      return ops;
    });
    wt.add_row({"3-word MCAS", bench::fmt(r.ops_per_sec() / 1e6, 3) + "M"});
  }
  {
    const auto r = bench::run_phase(1, [](int, const std::atomic<bool>& stop) {
      LlScWord a(1), b(1), c(1);
      Kcss::Compare cmp[2];
      std::uint64_t ops = 0;
      std::uint32_t val = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        cmp[0] = {&b, 1};
        cmp[1] = {&c, 1};
        if (Kcss::kcss(&a, val, val + 1, cmp, 2)) ++val;
        ++ops;
      }
      return ops;
    });
    wt.add_row({"3-CSS (KCSS)", bench::fmt(r.ops_per_sec() / 1e6, 3) + "M"});
  }
  wt.print();
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx

int main() {
  llxscx::run();
  return 0;
}
