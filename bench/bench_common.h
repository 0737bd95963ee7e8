// Shared harness for the experiment binaries: timed multi-threaded phases,
// throughput accounting, and aligned table printing.
//
// Every binary prints a self-contained table matching the experiment index
// in DESIGN.md §4; the committed BENCH_*.json files record measured output
// (the `--json=<file>` envelopes). Durations are deliberately short by default (the full
// bench suite must run in minutes on a laptop-class host); override with
// the LLXSCX_BENCH_MS environment variable for longer, steadier runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/barrier.h"
#include "util/memorder.h"
#include "util/stats.h"

namespace llxscx::bench {

inline int phase_millis() { return env_phase_millis(200); }

// LLXSCX_BENCH_THREADS caps every bench's thread grid (unset = no cap).
// The CI smoke job sets it to 2 so each binary exercises one single- and
// one multi-threaded row in a few hundred ms.
inline int thread_cap() {
  if (const char* env = std::getenv("LLXSCX_BENCH_THREADS")) {
    return std::max(1, std::atoi(env));
  }
  return 1 << 20;
}

// The bench's preferred thread counts, filtered by thread_cap(); if the cap
// is below the smallest preference, runs the cap alone.
inline std::vector<int> thread_grid(std::initializer_list<int> preferred) {
  const int cap = thread_cap();
  std::vector<int> out;
  for (int t : preferred) {
    if (t <= cap) out.push_back(t);
  }
  if (out.empty()) out.push_back(cap);
  return out;
}

struct PhaseResult {
  std::uint64_t total_ops = 0;
  double seconds = 0;
  StepCounts steps;  // aggregated across worker threads for the phase

  double ops_per_sec() const { return seconds > 0 ? total_ops / seconds : 0; }
};

// Runs `worker(thread_index, stop_flag)` on `threads` threads for
// `phase_millis()` ms through run_timed_phase (util/barrier.h, which owns
// the start line, stop flag and timing convention); the worker returns its
// completed-operation count. Step counters reset before the start line and
// are snapshotted after the worker returns.
inline PhaseResult run_phase(
    int threads,
    const std::function<std::uint64_t(int, const std::atomic<bool>&)>& worker) {
  std::vector<std::uint64_t> ops(threads, 0);
  std::vector<StepCounts> steps(threads);
  PhaseResult r;
  r.seconds = run_timed_phase(threads, phase_millis(), [&](int t) {
    Stats::reset_mine();
    return [&, t](const std::atomic<bool>& stop) {
      ops[t] = worker(t, stop);
      steps[t] = Stats::my_snapshot();
    };
  });
  for (int t = 0; t < threads; ++t) {
    r.total_ops += ops[t];
    r.steps += steps[t];
  }
  return r;
}

// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    // Size the width table to the WIDEST row, not just the header: a row
    // with extra trailing cells must widen the table, not write past it.
    std::size_t columns = headers_.size();
    for (const auto& row : rows_) columns = std::max(columns, row.size());
    std::vector<std::size_t> width(columns, 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    print_row(headers_, width);
    std::string rule;
    for (std::size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c], '-');
      if (c + 1 < width.size()) rule += "-+-";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, width);
  }

 private:
  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& width) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::string cell = cells[c];
      cell.resize(width[c], ' ');
      line += cell;
      if (c + 1 < width.size()) line += " | ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

// --- BENCH_*.json trajectory emitters (DESIGN.md §4) --------------------
// Shared by every bench that joins the BENCH_*.json contract, so the
// `--json=<file>` argument convention and the JSON envelope (bench name +
// build config + rows array) cannot drift apart between binaries.

// Parses the single supported flag `--json=<file>`. Returns the path (or
// nullptr when absent); prints usage and exits 2 on anything else,
// including an empty `--json=` path (which would otherwise fopen("")).
inline const char* parse_json_flag(int argc, char** argv) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0 && argv[i][7] != '\0') {
      path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--json=<file>]\n", argv[0]);
      std::exit(2);
    }
  }
  return path;
}

// Writes {"bench": name, "config": {...}, "rows": [...]} to `path`.
// `row_fn(f, i)` prints the i-th row object only — indentation and the
// between-row comma are the envelope's job. Returns false (after printing
// a diagnostic) if the file cannot be opened or any write fails — callers
// must propagate that to a nonzero exit so a truncated BENCH_*.json (full
// disk, bad path) fails CI instead of silently corrupting the trajectory.
template <class RowFn>
[[nodiscard]] bool emit_json_envelope(const char* path, const char* name,
                                      std::size_t row_count, RowFn row_fn) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", name, path);
    return false;
  }
  bool ok =
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"%s\",\n"
                   "  \"config\": {\"relaxed_orders\": %s, \"count_steps\": %s, "
                   "\"phase_ms\": %d},\n"
                   "  \"rows\": [\n",
                   name, kRelaxedOrders ? "true" : "false",
                   kStepCounting ? "true" : "false", phase_millis()) >= 0;
  for (std::size_t i = 0; i < row_count; ++i) {
    ok = ok && std::fprintf(f, "    ") >= 0;
    row_fn(f, i);
    ok = ok && std::fprintf(f, "%s\n", i + 1 < row_count ? "," : "") >= 0;
  }
  ok = ok && std::fprintf(f, "  ]\n}\n") >= 0;
  ok = std::ferror(f) == 0 && ok;  // catch row_fn's own fprintf failures
  ok = std::fclose(f) == 0 && ok;  // fclose flushes; a full disk fails here
  if (!ok) {
    std::fprintf(stderr, "%s: error writing %s\n", name, path);
    return false;
  }
  std::printf("\nwrote %s\n", path);
  return true;
}

}  // namespace llxscx::bench
