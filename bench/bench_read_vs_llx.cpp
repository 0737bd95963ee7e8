// Experiment E5 — plain-read searches vs LLX-per-node searches (claim C-G).
//
// Proposition 2 (§4.3) is what entitles Get/Search to traverse with simple
// reads of next pointers "instead of the more expensive LLX operations".
// On multisets of 16..1024 keys, one thread gets the LAST key (so the whole
// list is walked) for one timed phase per traversal, and the table reports
// ns per get next to the phase's exact step counts per get. The claim
// columns make it self-checking: the plain-read get of the n-th key reads
// n next pointers and issues no LLX; the LLX traversal issues n+1 LLXs
// (the head sentinel and every node).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "ds/multiset_llxscx.h"
#include "reclaim/epoch.h"

namespace llxscx {
namespace {

void run() {
  std::printf("E5: plain-read get vs LLX-per-node get, 1 thread, %d ms per row\n",
              bench::phase_millis());
  std::printf("claim (Prop. 2): get needs no LLX — keys reads, 0 LLX per get\n\n");

  bench::Table t({"keys", "traversal", "ns/get", "reads/get (claim)",
                  "llx/get (claim)", "match", "found"});
  for (const std::uint64_t keys : {16, 64, 256, 1024}) {
    LlxScxMultiset ms;
    for (std::uint64_t k = 1; k <= keys; ++k) ms.insert(k, 1);
    // claim_reads 0: the LLX traversal's reads are LLX internals, unclaimed.
    const auto row = [&](const char* name, std::uint64_t claim_reads,
                         std::uint64_t claim_llx, auto get) {
      std::uint64_t found = 0;
      const auto r = bench::run_phase(
          1, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
              found += get(keys);
              ++ops;
            }
            return ops;
          });
      const std::uint64_t n = r.total_ops;
      const bool match =
          r.steps.llx_calls == claim_llx * n &&
          (claim_reads == 0 || r.steps.shared_reads == claim_reads * n);
      const auto per_get = [&](std::uint64_t steps) {
        return bench::fmt(static_cast<double>(steps) / n, 1);
      };
      const auto claim = [](std::uint64_t c) {
        return " (" + bench::fmt_u64(c) + ")";
      };
      t.add_row({bench::fmt_u64(keys), name, bench::fmt(r.seconds * 1e9 / n, 1),
                 per_get(r.steps.shared_reads) +
                     (claim_reads ? claim(claim_reads) : std::string()),
                 per_get(r.steps.llx_calls) + claim(claim_llx),
                 !kStepCounting ? "n/a (steps off)"
                 : match        ? "MATCH"
                                : "NO (BUG)",
                 found == n ? "yes" : "NO (BUG)"});
    };
    row("plain reads", keys, 0, [&](std::uint64_t k) { return ms.get(k); });
    row("LLX per node", 0, keys + 1,
        [&](std::uint64_t k) { return ms.get_llx_traversal(k); });
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
