// Per-thread step counters (DESIGN.md §5) — the one counter block.
//
// The paper's analytic claims (E1/E7) are stated in numbers of CAS steps,
// shared reads, and shared writes per uncontended operation, so the
// primitives in llxscx/, baselines/mcas.h, and baselines/kcss.h increment
// these counters on every shared-memory step they take. The reclamation
// policies (reclaim/record_manager.h) count what they allocate, serve
// from a bank and retire in the same block. Counters are plain
// thread-local increments — cheap enough to leave on in release builds —
// and a phase harness aggregates snapshots across workers (bench_common.h).
//
// Building with -DLLXSCX_COUNT_STEPS=OFF (CMake option; defaults ON)
// compiles every hook to nothing, for measuring the uninstrumented hot
// path. Step-count tables then read zero and the tests that pin SCX shapes
// skip themselves via kStepCounting.
#pragma once

#include <cstdint>

#ifndef LLXSCX_COUNT_STEPS
#define LLXSCX_COUNT_STEPS 1
#endif

namespace llxscx {

inline constexpr bool kStepCounting = LLXSCX_COUNT_STEPS != 0;

struct StepCounts {
  std::uint64_t llx_calls = 0;   // LLX invocations
  std::uint64_t llx_fail = 0;    // LLX returned FAIL (not FINALIZED)
  std::uint64_t scx_calls = 0;   // SCX invocations
  std::uint64_t scx_fail = 0;    // SCX returned false
  std::uint64_t helps = 0;       // Help() runs on another thread's SCX-record
  std::uint64_t cas = 0;         // single-word CAS attempts
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;  // plain (non-CAS) shared writes
  std::uint64_t allocations = 0;    // policy allocs and MCAS descriptors
  std::uint64_t pool_hits = 0;      // allocs served from a per-thread bank
  std::uint64_t retires = 0;        // records handed to a policy's retire

  static constexpr std::uint64_t StepCounts::*kFields[] = {
      &StepCounts::llx_calls,    &StepCounts::llx_fail,
      &StepCounts::scx_calls,    &StepCounts::scx_fail,
      &StepCounts::helps,        &StepCounts::cas,
      &StepCounts::shared_reads, &StepCounts::shared_writes,
      &StepCounts::allocations,  &StepCounts::pool_hits,
      &StepCounts::retires};

  StepCounts& operator+=(const StepCounts& o) {
    for (auto f : kFields) this->*f += o.*f;
    return *this;
  }

  StepCounts operator-(const StepCounts& o) const {
    StepCounts r = *this;
    for (auto f : kFields) r.*f -= o.*f;
    return r;
  }
};

class Stats {
 public:
  static void reset_mine() { mine() = StepCounts{}; }
  static StepCounts my_snapshot() { return mine(); }

  // Instrumentation hooks for the primitives and the policies; no-ops when
  // step counting is compiled out (the `if constexpr` discards the
  // thread-local access).
  static void llx_call() {
    if constexpr (kStepCounting) ++mine().llx_calls;
  }
  static void llx_failed() {
    if constexpr (kStepCounting) ++mine().llx_fail;
  }
  static void scx_call() {
    if constexpr (kStepCounting) ++mine().scx_calls;
  }
  static void scx_failed() {
    if constexpr (kStepCounting) ++mine().scx_fail;
  }
  static void helped() {
    if constexpr (kStepCounting) ++mine().helps;
  }
  static void count_cas() {
    if constexpr (kStepCounting) ++mine().cas;
  }
  static void count_read(std::uint64_t n = 1) {
    if constexpr (kStepCounting) mine().shared_reads += n;
  }
  static void count_write(std::uint64_t n = 1) {
    if constexpr (kStepCounting) mine().shared_writes += n;
  }
  static void count_alloc() {
    if constexpr (kStepCounting) ++mine().allocations;
  }
  static void count_pool_hit() {
    if constexpr (kStepCounting) ++mine().pool_hits;
  }
  static void count_retire() {
    if constexpr (kStepCounting) ++mine().retires;
  }

 private:
  static StepCounts& mine() {
    thread_local StepCounts tl;
    return tl;
  }
};

}  // namespace llxscx
