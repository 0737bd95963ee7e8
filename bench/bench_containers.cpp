// Experiment E9 (extension) — the LLX/SCX stack and FIFO queue vs their
// default locked counterparts.
//
// Not a table from the paper; it rounds out deliverable (d) for the
// structures built beyond the paper's multiset, using the same phase
// harness and the same single-core caveat as E2/E6. The hash map is
// measured by bench_workload (E12) and its locked side by the serving
// benchmark's ladder (DESIGN.md §4).
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>

#include "bench/bench_common.h"
#include "ds/container_api.h"
#include "ds/queue_llxscx.h"
#include "ds/stack_llxscx.h"

namespace llxscx {
namespace {

// E9's subjects satisfy the unified container contract (DESIGN.md §9).
static_assert(LlxScxContainer<LlxScxStack>);
static_assert(LlxScxContainer<LlxScxQueue>);

class LockedStack {
 public:
  void push(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    d_.push_back(v);
  }
  std::optional<std::uint64_t> pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (d_.empty()) return std::nullopt;
    const std::uint64_t v = d_.back();
    d_.pop_back();
    return v;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> d_;
};

class LockedQueue {
 public:
  void enqueue(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    d_.push_back(v);
  }
  std::optional<std::uint64_t> dequeue() {
    std::lock_guard<std::mutex> lock(mu_);
    if (d_.empty()) return std::nullopt;
    const std::uint64_t v = d_.front();
    d_.pop_front();
    return v;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> d_;
};

template <typename StackT>
double stack_cell(int threads) {
  StackT s;
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0, v = 1;
        while (!stop.load(std::memory_order_relaxed)) {
          s.push(v++);
          s.pop();
          ops += 2;
        }
        return ops;
      });
  return r.ops_per_sec();
}

template <typename QueueT>
double queue_cell(int threads) {
  QueueT q;
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0, v = 1;
        while (!stop.load(std::memory_order_relaxed)) {
          q.enqueue(v++);
          q.dequeue();
          ops += 2;
        }
        return ops;
      });
  return r.ops_per_sec();
}

void run() {
  std::printf("E9 (extension): stack / queue vs locked counterparts, %d ms "
              "per cell (ops/s)\n\n", bench::phase_millis());
  bench::Table t({"threads", "llxscx-stack", "locked-stack", "llxscx-queue",
                  "locked-queue"});
  for (int threads : bench::thread_grid({1, 2, 4})) {
    t.add_row({std::to_string(threads),
               bench::fmt(stack_cell<LlxScxStack>(threads) / 1e6, 3) + "M",
               bench::fmt(stack_cell<LockedStack>(threads) / 1e6, 3) + "M",
               bench::fmt(queue_cell<LlxScxQueue>(threads) / 1e6, 3) + "M",
               bench::fmt(queue_cell<LockedQueue>(threads) / 1e6, 3) + "M"});
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
