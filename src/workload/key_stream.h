// Key-stream generators (DESIGN.md §13) — WHERE a workload's operations
// land in the key space, separated from WHAT they do (op_mix.h) and for
// HOW LONG (driver.h phases).
//
// Layering: a KeyStreamSpec is a plain value describing a distribution; a
// KeyStreamFactory owns the (possibly expensive, possibly shared) state a
// run needs — the Zipfian harmonic table is computed once and shared
// read-only by every thread, the sequential ramp's cursor is one atomic
// shared BY DESIGN (the ramp is one cross-thread ascending stream, the
// grow phase's dense fill); make(seed) then mints one cheap per-thread
// KeyStream that owns its own PRNG, so worker threads never contend on
// generator state beyond what the distribution itself requires.
//
// All streams draw 1-based keys in [1, key_space] — the repo-wide
// convention (0 stays a sentinel, cf. tests/test_common.h skewed_key).
// Determinism: per-thread streams inherit util/random.h's contract — a
// stream's key sequence is a pure function of (spec, seed).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.h"

namespace llxscx::workload {

// The four stream shapes the production harness drives (ROADMAP item):
//   kUniform        every key in [1, space] equally likely — the legacy
//                   microbench regime, kept as the control column.
//   kZipfian        rank-frequency skew P(rank) ∝ rank^-theta over ranks
//                   1..space (rank == key, so key 1 is the hottest);
//                   drawn by inverse CDF over a precomputed harmonic
//                   table (PetPS benchmark_zipf style). theta defaults
//                   to YCSB's 0.99.
//   kHotSet         hot_percent of draws land uniformly on [1, hot_keys],
//                   the rest uniformly on [1, space] — SNIPPETS.md
//                   Snippet 2's hot_keys / contention-index idiom
//                   (contention index = 1/hot_keys).
//   kSequentialRamp ascending keys from a cursor SHARED by every stream
//                   the factory mints: next() = 1 + (fetch_add(1) mod
//                   space). The grow-phase stream — dense ascending
//                   inserts ramping the structure up, wrapping so the
//                   live set stays bounded by space.
struct KeyStreamSpec {
  enum class Kind { kUniform, kZipfian, kHotSet, kSequentialRamp };

  Kind kind = Kind::kUniform;
  std::uint64_t key_space = 1 << 16;
  double theta = 0.99;            // kZipfian
  std::uint64_t hot_keys = 64;    // kHotSet
  unsigned hot_percent = 80;      // kHotSet

  static KeyStreamSpec uniform(std::uint64_t space) {
    return {Kind::kUniform, space};
  }
  static KeyStreamSpec zipfian(std::uint64_t space, double theta = 0.99) {
    KeyStreamSpec s{Kind::kZipfian, space};
    s.theta = theta;
    return s;
  }
  static KeyStreamSpec hot_set(std::uint64_t hot, std::uint64_t space,
                               unsigned hot_percent = 80) {
    KeyStreamSpec s{Kind::kHotSet, space};
    s.hot_keys = hot;
    s.hot_percent = hot_percent;
    return s;
  }
  static KeyStreamSpec sequential_ramp(std::uint64_t space) {
    return {Kind::kSequentialRamp, space};
  }

  const char* name() const {
    switch (kind) {
      case Kind::kUniform: return "uniform";
      case Kind::kZipfian: return "zipfian";
      case Kind::kHotSet: return "hotset";
      case Kind::kSequentialRamp: return "seq-ramp";
    }
    return "?";
  }
};

// One thread's key source. The virtual dispatch costs ~1 ns per draw next
// to container operations that execute CAS chains — the price of the one
// uniform signature every driver and bench shares.
class KeyStream {
 public:
  virtual ~KeyStream() = default;
  virtual std::uint64_t next() = 0;
};

namespace detail {

class UniformStream final : public KeyStream {
 public:
  UniformStream(std::uint64_t space, std::uint64_t seed)
      : space_(space), rng_(seed) {}
  std::uint64_t next() override { return 1 + rng_.below(space_); }

 private:
  std::uint64_t space_;
  Xoshiro256 rng_;
};

class ZipfianStream final : public KeyStream {
 public:
  ZipfianStream(std::shared_ptr<const std::vector<double>> cdf,
                std::uint64_t seed)
      : cdf_(std::move(cdf)), rng_(seed) {}

  // Inverse CDF: draw u ∈ [0,1), binary-search the first rank whose
  // cumulative harmonic mass exceeds u. O(log space) comparisons over a
  // read-only shared table.
  std::uint64_t next() override {
    const double u = rng_.next_double();
    const std::vector<double>& cdf = *cdf_;
    std::size_t lo = 0, hi = cdf.size() - 1;  // invariant: cdf[hi] > u
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf[mid] > u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<std::uint64_t>(lo) + 1;  // rank == key, 1-based
  }

 private:
  std::shared_ptr<const std::vector<double>> cdf_;
  Xoshiro256 rng_;
};

class HotSetStream final : public KeyStream {
 public:
  HotSetStream(const KeyStreamSpec& spec, std::uint64_t seed)
      : hot_(spec.hot_keys), space_(spec.key_space),
        hot_percent_(spec.hot_percent), rng_(seed) {}
  std::uint64_t next() override {
    return rng_.percent(hot_percent_) ? 1 + rng_.below(hot_)
                                      : 1 + rng_.below(space_);
  }

 private:
  std::uint64_t hot_;
  std::uint64_t space_;
  unsigned hot_percent_;
  Xoshiro256 rng_;
};

class SequentialRampStream final : public KeyStream {
 public:
  SequentialRampStream(std::shared_ptr<std::atomic<std::uint64_t>> cursor,
                       std::uint64_t space)
      : cursor_(std::move(cursor)), space_(space) {}
  std::uint64_t next() override {
    // Relaxed: the cursor orders nothing; it only hands out distinct
    // ascending positions (mod wrap) across the ramp's threads.
    return 1 + cursor_->fetch_add(1, std::memory_order_relaxed) % space_;
  }

 private:
  std::shared_ptr<std::atomic<std::uint64_t>> cursor_;
  std::uint64_t space_;
};

}  // namespace detail

// Builds the shared state for a spec once, then mints per-thread streams.
// Safe to call make() concurrently after construction (the factory is
// immutable apart from the ramp cursor, which is atomic).
class KeyStreamFactory {
 public:
  explicit KeyStreamFactory(const KeyStreamSpec& spec) : spec_(spec) {
    if (spec.kind == KeyStreamSpec::Kind::kZipfian) {
      // cdf[i] = H_{i+1}(theta) / H_N(theta): the cumulative probability
      // mass of ranks 1..i+1. One pass builds the unnormalized prefix
      // sums; a second divides by the total. double prefix sums over
      // ≤ a few million monotone terms keep far more precision than the
      // 53-bit draw resolves.
      auto cdf = std::make_shared<std::vector<double>>();
      cdf->resize(spec.key_space);
      double sum = 0;
      for (std::uint64_t rank = 1; rank <= spec.key_space; ++rank) {
        sum += std::pow(static_cast<double>(rank), -spec.theta);
        (*cdf)[rank - 1] = sum;
      }
      for (double& c : *cdf) c /= sum;
      cdf->back() = 1.0;  // guard the binary search's cdf[hi] > u invariant
      zipf_cdf_ = std::move(cdf);
    } else if (spec.kind == KeyStreamSpec::Kind::kSequentialRamp) {
      ramp_cursor_ = std::make_shared<std::atomic<std::uint64_t>>(0);
    }
  }

  const KeyStreamSpec& spec() const { return spec_; }

  std::unique_ptr<KeyStream> make(std::uint64_t seed) const {
    switch (spec_.kind) {
      case KeyStreamSpec::Kind::kUniform:
        return std::make_unique<detail::UniformStream>(spec_.key_space, seed);
      case KeyStreamSpec::Kind::kZipfian:
        return std::make_unique<detail::ZipfianStream>(zipf_cdf_, seed);
      case KeyStreamSpec::Kind::kHotSet:
        return std::make_unique<detail::HotSetStream>(spec_, seed);
      case KeyStreamSpec::Kind::kSequentialRamp:
        return std::make_unique<detail::SequentialRampStream>(ramp_cursor_,
                                                              spec_.key_space);
    }
    return nullptr;  // unreachable: all Kind values handled above
  }

  // Analytic top-k probability mass for kZipfian — H_k/H_N, what
  // test_workload checks empirical frequencies against.
  double zipfian_top_k_mass(std::uint64_t k) const {
    if (!zipf_cdf_ || k == 0) return 0;
    const std::vector<double>& cdf = *zipf_cdf_;
    return cdf[std::min<std::size_t>(k, cdf.size()) - 1];
  }

 private:
  KeyStreamSpec spec_;
  std::shared_ptr<const std::vector<double>> zipf_cdf_;
  std::shared_ptr<std::atomic<std::uint64_t>> ramp_cursor_;
};

}  // namespace llxscx::workload
