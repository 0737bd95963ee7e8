// Sense-reversing spin barrier, and the one timed-phase runner built on it
// (DESIGN.md §3) that every bench, the workload driver and the test
// stresses share. Spinning (rather than a condvar) keeps the start-line
// release jitter well under the microsecond scale the timed phases care
// about.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace llxscx {

class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint64_t my_sense = sense_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense + 1, std::memory_order_release);
      return;
    }
    std::uint64_t spins = 0;
    while (sense_.load(std::memory_order_acquire) == my_sense) {
      // Yield once the spin gets long: the container running ctest may have
      // fewer hardware threads than parties.
      if (++spins > 1024) std::this_thread::yield();
    }
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> sense_{0};
};

// Runs one timed phase on `threads` workers and returns its length in
// seconds. Worker t first calls setup(t) — untimed, on its own thread —
// which returns the body; all workers then line up on a common start line
// with the caller, and each runs body(stop) until it sees the stop flag,
// which the caller flips `millis` ms after the start line.
//
// Timing convention: the result spans the start line to the stop-flag
// flip. Setup (key streams, buffers, counter resets) is before the start
// line and each worker's post-stop drain (its last in-flight op, stats
// snapshot) is after the flip, so neither can deflate a reported ops/s.
template <class Setup>
double run_timed_phase(int threads, int millis, Setup setup) {
  SpinBarrier start_line(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto body = setup(t);
      start_line.arrive_and_wait();
      body(stop);
    });
  }
  start_line.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  const auto end = std::chrono::steady_clock::now();
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace llxscx
