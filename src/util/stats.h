// Per-thread shared-memory step counters (DESIGN.md §5).
//
// The paper's analytic claims (E1/E7) are stated in numbers of CAS steps,
// shared reads, and shared writes per uncontended operation, so the
// primitives in llxscx/, baselines/mcas.h, and baselines/kcss.h increment
// these counters on every shared-memory step they take. Counters are plain
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
  std::uint64_t allocations = 0;    // Data-records constructed

  StepCounts& operator+=(const StepCounts& o) {
    llx_calls += o.llx_calls;
    llx_fail += o.llx_fail;
    scx_calls += o.scx_calls;
    scx_fail += o.scx_fail;
    helps += o.helps;
    cas += o.cas;
    shared_reads += o.shared_reads;
    shared_writes += o.shared_writes;
    allocations += o.allocations;
    return *this;
  }

  StepCounts operator-(const StepCounts& o) const {
    StepCounts r = *this;
    r.llx_calls -= o.llx_calls;
    r.llx_fail -= o.llx_fail;
    r.scx_calls -= o.scx_calls;
    r.scx_fail -= o.scx_fail;
    r.helps -= o.helps;
    r.cas -= o.cas;
    r.shared_reads -= o.shared_reads;
    r.shared_writes -= o.shared_writes;
    r.allocations -= o.allocations;
    return r;
  }
};

class Stats {
 public:
  static void reset_mine() { mine() = StepCounts{}; }
  static StepCounts my_snapshot() { return mine(); }

  // Instrumentation hooks for the primitives; no-ops when step counting is
  // compiled out (the `if constexpr` discards the thread-local access).
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

 private:
  static StepCounts& mine() {
    thread_local StepCounts tl;
    return tl;
  }
};

}  // namespace llxscx
