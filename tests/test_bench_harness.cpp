// Regression coverage for the bench harness (bench_common.h) bugfixes:
//   - Table::print() with a RAGGED row (more cells than the header) must
//     widen the table instead of writing width[c] out of bounds — under
//     ASan the old code was a heap-buffer-overflow the moment any bench
//     added a column to rows first.
//   - parse_json_flag() must reject `--json=` with an empty path (exit 2
//     with usage) instead of handing fopen("") to the emitter.
//   - emit_json_envelope() must report write failures (bad directory,
//     full disk) via its return value instead of printing "wrote <file>"
//     over a truncated BENCH_*.json.
//   - run_phase() must measure the phase up to the stop-flag flip, NOT
//     through each worker's post-stop drain — a slow drain previously
//     inflated `seconds` and deflated every reported ops/s.
//   - run_timed_phase() (util/barrier.h, the runner under every phase)
//     must run each worker's setup before the start line: the workload
//     driver builds its key streams there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_common.h"

namespace llxscx::bench {
namespace {

TEST(BenchTable, RaggedRowWidensTheTableInsteadOfOverflowing) {
  Table t({"threads", "ops/s"});
  t.add_row({"1", "2.000M"});
  // Three extra trailing cells beyond the two headers: the old printer
  // indexed width[2..4] in a 2-element vector.
  t.add_row({"4", "1.500M", "grow", "65536", "extra"});
  ::testing::internal::CaptureStdout();
  t.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("threads"), std::string::npos);
  EXPECT_NE(out.find("1.500M"), std::string::npos);
  EXPECT_NE(out.find("extra"), std::string::npos)
      << "the trailing cell must be printed, not dropped";
}

TEST(BenchTable, RowsShorterThanTheHeaderStillPrint) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  ::testing::internal::CaptureStdout();
  t.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("only"), std::string::npos);
}

using BenchHarnessDeath = ::testing::Test;

TEST(BenchHarnessDeath, JsonFlagWithEmptyPathExitsNonzero) {
  char prog[] = "bench_x";
  char flag[] = "--json=";
  char* argv[] = {prog, flag, nullptr};
  EXPECT_EXIT(parse_json_flag(2, argv), ::testing::ExitedWithCode(2),
              "usage");
}

TEST(BenchHarnessDeath, UnknownFlagExitsNonzero) {
  char prog[] = "bench_x";
  char flag[] = "--bogus";
  char* argv[] = {prog, flag, nullptr};
  EXPECT_EXIT(parse_json_flag(2, argv), ::testing::ExitedWithCode(2),
              "usage");
}

TEST(BenchHarness, JsonFlagParsesNonEmptyPath) {
  char prog[] = "bench_x";
  char flag[] = "--json=out.json";
  char* argv[] = {prog, flag, nullptr};
  EXPECT_STREQ(parse_json_flag(2, argv), "out.json");
  EXPECT_EQ(parse_json_flag(1, argv), nullptr);
}

TEST(BenchHarness, EmitJsonEnvelopeReportsFailureAndSuccess) {
  EXPECT_FALSE(emit_json_envelope("/nonexistent-dir/x.json", "t", 0,
                                  [](std::FILE*, std::size_t) {}))
      << "an unopenable path must not report success";

  const std::string path =
      ::testing::TempDir() + "/llxscx_bench_harness_emit.json";
  ASSERT_TRUE(emit_json_envelope(
      path.c_str(), "t", 2, [](std::FILE* f, std::size_t i) {
        std::fprintf(f, "{\"row\": %zu}", i);
      }));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  const std::string body(buf, n);
  EXPECT_NE(body.find("\"bench\": \"t\""), std::string::npos);
  EXPECT_NE(body.find("{\"row\": 1}"), std::string::npos);
  EXPECT_EQ(body.find("{\"row\": 1},"), std::string::npos)
      << "no trailing comma after the last row";
}

TEST(BenchHarness, RunPhaseSecondsExcludeWorkerDrainAfterStop) {
  // Pin the phase to 50 ms regardless of the ambient LLXSCX_BENCH_MS.
  const char* saved = std::getenv("LLXSCX_BENCH_MS");
  const std::string saved_copy = saved ? saved : "";
  setenv("LLXSCX_BENCH_MS", "50", 1);
  const PhaseResult r =
      run_phase(2, [](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) ++ops;
        // A deliberately slow post-stop drain (the bug measured through
        // this sleep, roughly quadrupling `seconds` for a 50 ms phase).
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return ops;
      });
  if (saved) {
    setenv("LLXSCX_BENCH_MS", saved_copy.c_str(), 1);
  } else {
    unsetenv("LLXSCX_BENCH_MS");
  }
  EXPECT_GE(r.seconds, 0.050);
  EXPECT_LT(r.seconds, 0.150)
      << "seconds must span start→stop-flip, not the workers' drain";
  EXPECT_GT(r.total_ops, 0u);
}

TEST(BenchHarness, RunPhaseSecondsExcludeWorkerSetupBeforeStart) {
  std::atomic<std::uint64_t> ops{0};
  const double seconds = run_timed_phase(2, 50, [&](int) {
    // A deliberately slow per-thread setup, three times the phase length.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return [&](const std::atomic<bool>& stop) {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) ++n;
      ops.fetch_add(n);
    };
  });
  EXPECT_GE(seconds, 0.050);
  EXPECT_LT(seconds, 0.150)
      << "seconds must span start→stop-flip, not the workers' setup";
  EXPECT_GT(ops.load(), 0u);
}

}  // namespace
}  // namespace llxscx::bench
