// Shared helpers for the test binaries: the stress-duration knob and the
// multi-thread locked-oracle scaffolding every structure's stress test
// shares (a timed worker pool on the one phase runner + batched delta
// tally). The per-structure tests supply only the op mix and the final
// verification.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "util/barrier.h"
#include "util/random.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LLXSCX_TEST_HAS_LSAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define LLXSCX_TEST_HAS_LSAN 1
#endif
#ifdef LLXSCX_TEST_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace llxscx::testing {

// The LeakyManager drops retired nodes by design (the E8 ablation). Tests
// that exercise it wrap the structure's lifetime in this guard so LSan
// attributes the deliberate leak to the policy instead of failing the
// run; outside ASan builds it is a no-op.
class ScopedExpectedLeak {
 public:
  ScopedExpectedLeak() {
#ifdef LLXSCX_TEST_HAS_LSAN
    __lsan_disable();
#endif
  }
  ~ScopedExpectedLeak() {
#ifdef LLXSCX_TEST_HAS_LSAN
    __lsan_enable();
#endif
  }
  ScopedExpectedLeak(const ScopedExpectedLeak&) = delete;
  ScopedExpectedLeak& operator=(const ScopedExpectedLeak&) = delete;
};

// Stress-phase duration: follows LLXSCX_BENCH_MS (like the bench harness)
// so the sanitizer CI jobs can downscale, defaulting to 2 s.
inline int stress_millis() {
  if (const char* env = std::getenv("LLXSCX_BENCH_MS")) {
    return std::max(1, std::atoi(env));
  }
  return 2000;
}

// Runs `threads` workers through run_timed_phase (util/barrier.h) for
// stress_millis(). worker(thread_index, rng, stop) returns its completed-op
// count; the sum is returned. The rng is seeded per-thread from seed_base
// before the start line so runs are reproducible.
template <typename WorkerFn>
std::uint64_t run_stress_workers(int threads, unsigned seed_base,
                                 WorkerFn worker) {
  std::atomic<std::uint64_t> total_ops{0};
  run_timed_phase(threads, stress_millis(), [&](int t) {
    return [&, t, rng = Xoshiro256(seed_base + static_cast<unsigned>(t))](
               const std::atomic<bool>& stop) mutable {
      total_ops.fetch_add(worker(t, rng, stop));
    };
  });
  return total_ops.load();
}

// The VLL-microbenchmark contention idiom (SNIPPETS.md §2): most
// operations land on a small hot-key set, the rest spread over a larger
// key space. Keys are 1-based so 0 stays available as a sentinel.
inline std::uint64_t skewed_key(Xoshiro256& rng, std::uint64_t hot_keys,
                                std::uint64_t key_space) {
  return rng.percent(80) ? 1 + rng.below(hot_keys) : 1 + rng.below(key_space);
}

// Mutex-protected net-per-key tally. Workers record through a thread-local
// Recorder that batches deltas (flushing every 128, and on destruction) so
// the oracle lock never serializes the structure under test — the exact
// scheme the copy-pasted stresses used.
class KeyedOracle {
 public:
  class Recorder {
   public:
    explicit Recorder(KeyedOracle& oracle) : oracle_(oracle) {}
    ~Recorder() { flush(); }
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    void add(std::uint64_t key, std::int64_t delta) {
      deltas_.emplace_back(key, delta);
      if (deltas_.size() >= 128) flush();
    }
    void flush() {
      if (deltas_.empty()) return;
      std::lock_guard<std::mutex> lock(oracle_.mu_);
      for (const auto& [k, d] : deltas_) oracle_.net_[k] += d;
      deltas_.clear();
    }

   private:
    KeyedOracle& oracle_;
    std::vector<std::pair<std::uint64_t, std::int64_t>> deltas_;
  };

  // Workers must have joined (Recorders destroyed) before reading.
  std::int64_t net(std::uint64_t key) const {
    const auto it = net_.find(key);
    return it == net_.end() ? 0 : it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::int64_t> net_;
};

}  // namespace llxscx::testing
