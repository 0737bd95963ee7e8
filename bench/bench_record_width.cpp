// Experiment E7 — SCX cost is independent of record width (claim C-A vs C-B).
//
// §2: "an SCX that depends on LLXs of k Data-records performs k+1
// single-word CAS steps when there is no contention, NO MATTER HOW MANY
// WORDS EACH RECORD CONTAINS" — whereas multi-word CAS over a y-word record
// must touch every word (2y+1 CAS).
//
// Single record (k=1), y mutable words, y ∈ {1,2,4,8,15}:
//   SCX: 2 CAS flat.   MCAS over all y words: 2y+1 CAS, linear.
#include <cstdio>
#include <vector>

#include "baselines/mcas.h"
#include "bench/bench_common.h"
#include "llxscx/llx_scx.h"
#include "reclaim/record_manager.h"

namespace llxscx {
namespace {

template <std::size_t Y>
struct WideRecord : DataRecord<Y> {
  WideRecord() {
    for (std::size_t i = 0; i < Y; ++i) {
      this->mut(i).store(1, std::memory_order_relaxed);
    }
  }
};

template <std::size_t Y>
StepCounts measure_scx_width() {
  Epoch::Guard g;
  auto* rec = new WideRecord<Y>;
  auto l = llx(rec);
  const LinkedLlx v[] = {l.link()};
  const StepCounts before = Stats::my_snapshot();
  scx(v, 1, 0, &rec->mut(0), l.field(0), l.field(0) + 1);
  const StepCounts d = Stats::my_snapshot() - before;
  EbrManager::retire(rec);
  return d;
}

StepCounts measure_mcas_width(std::size_t y) {
  Epoch::Guard g;
  std::vector<McasWord*> words;
  std::vector<Mcas::Entry> entries;
  for (std::size_t i = 0; i < y; ++i) {
    words.push_back(new McasWord(1));
    entries.push_back({words.back(), 1, 2});
  }
  const StepCounts before = Stats::my_snapshot();
  Mcas::mcas(entries.data(), y);
  const StepCounts d = Stats::my_snapshot() - before;
  for (auto* w : words) delete w;
  return d;
}

template <std::size_t Y>
double scx_width_throughput() {
  const auto r = bench::run_phase(1, [](int, const std::atomic<bool>& stop) {
    Epoch::Guard g;
    WideRecord<Y> rec;
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto l = llx(&rec);
      const LinkedLlx v[] = {l.link()};
      scx(v, 1, 0, &rec.mut(0), l.field(0), l.field(0) + 1);
      ++ops;
    }
    return ops;
  });
  return r.ops_per_sec();
}

double mcas_width_throughput(std::size_t y) {
  const auto r = bench::run_phase(1, [y](int, const std::atomic<bool>& stop) {
    Epoch::Guard g;
    std::vector<McasWord> words(y);
    std::uint64_t ops = 0, val = 0;
    std::vector<Mcas::Entry> entries(y);
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < y; ++i) entries[i] = {&words[i], val, val + 1};
      if (Mcas::mcas(entries.data(), y)) ++val;
      ++ops;
    }
    return ops;
  });
  return r.ops_per_sec();
}

template <std::size_t Y>
void add_row(bench::Table& t) {
  const StepCounts s = measure_scx_width<Y>();
  const StepCounts m = measure_mcas_width(Y);
  t.add_row({std::to_string(Y), bench::fmt_u64(s.cas) + " (2)",
             bench::fmt_u64(m.cas) + " (" + std::to_string(2 * Y + 1) + ")",
             bench::fmt(scx_width_throughput<Y>() / 1e6, 3) + "M",
             bench::fmt(mcas_width_throughput(Y) / 1e6, 3) + "M"});
}

void run() {
  std::printf("E7: update cost vs record width y (k=1 record)\n");
  std::printf("claim: SCX = 2 CAS regardless of y; y-word MCAS = 2y+1 CAS\n\n");
  bench::Table t({"y words", "SCX cas (claim)", "MCAS cas (claim)", "SCX ops/s",
                  "MCAS ops/s"});
  add_row<1>(t);
  add_row<2>(t);
  add_row<4>(t);
  add_row<8>(t);
  add_row<15>(t);
  t.print();
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx

int main() {
  llxscx::run();
  return 0;
}
