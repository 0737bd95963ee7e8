// E12 — the production workload driver (DESIGN.md §13).
//
// ONE binary measures EVERY engine — the bare structures and their
// ShardedMap wrappers — under realistic traffic: skewed key streams
// (uniform / zipfian / hot-set, plus the sequential ramp inside every
// grow phase), YCSB-style op mixes, and phased grow → steady → churn
// regimes, with per-op-type sampled latency percentiles next to the
// throughput number. This is the harness every future perf PR (range
// scans, new RecordManager backends, shard batching) gets measured on,
// so its JSON is ONE consolidated BENCH_workload.json per run.
//
//   --profile=smoke|paper|prod   workload scale (default: paper)
//       smoke  CI-sized: 3 engines, 4 combos, 20 ms phases, 2^12 keys
//       paper  committed-baseline size: every engine, 4 combos,
//              100/200/100 ms phases, 2^14 keys
//       prod   2^20 keys, 6 combos, 1 s phases, 8 threads
//   --mix=ycsb-a|ycsb-b|ycsb-c|ycsb-e|R:I:E|R:I:E:S
//       replace every combo's steady mix with one custom mix
//   --engines=<name,...>         run only the named engines (kName
//       strings); an unknown name is a usage error (exit 2)
//   --json=<file>                emit the consolidated JSON
//
// LLXSCX_BENCH_MS (when set) overrides every phase duration of the
// chosen profile; LLXSCX_BENCH_THREADS caps its thread count — so CI
// can shrink any profile without a recompile.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "reclaim/epoch.h"
#include "service/sharded_map.h"
#include "workload/driver.h"

namespace llxscx {
namespace {

namespace wl = ::llxscx::workload;

struct Combo {
  wl::KeyStreamSpec stream;
  wl::OpMix mix;
};

struct Profile {
  const char* name;
  std::uint64_t key_space;
  int grow_ms, steady_ms, churn_ms;
  int threads;        // preferred; capped by LLXSCX_BENCH_THREADS
  bool all_engines;   // false: the smoke subset (hashmap + wrappers)
  bool wide_combos;   // true: add the prod-only combos
};

constexpr Profile kProfiles[] = {
    {"smoke", 1 << 12, 20, 20, 20, 2, false, false},
    {"paper", 1 << 14, 100, 200, 100, 4, true, false},
    {"prod", 1 << 20, 1000, 1000, 1000, 8, true, true},
};

// The distribution × mix grid. The three steady distributions plus the
// grow phases' sequential ramp give four stream shapes per run; ycsb-a/b
// give the two mix shapes (prod adds read-only ycsb-c and a second
// uniform column).
std::vector<Combo> combos_for(const Profile& p) {
  const std::uint64_t n = p.key_space;
  // uniform and zipfian both run under BOTH mixes so the skew delta is
  // directly readable per mix (read-mostly is where zipfian's cache-hot
  // top ranks pay off; update-heavy is where their conflicts cost).
  std::vector<Combo> out = {
      {wl::KeyStreamSpec::uniform(n), wl::kYcsbA},
      {wl::KeyStreamSpec::uniform(n), wl::kYcsbB},
      {wl::KeyStreamSpec::zipfian(n), wl::kYcsbA},
      {wl::KeyStreamSpec::zipfian(n), wl::kYcsbB},
      {wl::KeyStreamSpec::hot_set(64, n), wl::kYcsbB},
      // The scan-heavy class this subsystem exists to measure (§15):
      // YCSB-E's short ordered windows over a uniform stream.
      {wl::KeyStreamSpec::uniform(n), wl::kYcsbE},
  };
  if (p.wide_combos) {
    out.push_back({wl::KeyStreamSpec::zipfian(n), wl::kYcsbC});
  }
  return out;
}

struct TypeCell {
  std::uint64_t ops = 0, samples = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  std::uint64_t saturated = 0;  // samples clamped into the top bucket
};

struct Row {
  const char* engine;
  const char* dist;  // the regime's steady distribution
  const char* mix;   // the regime's steady mix
  const char* phase;
  const char* phase_stream;
  const char* phase_mix;
  int threads;
  int batch;     // dispatch width (1 = scalar)
  bool batched;  // batch > 1: latency percentiles are batch-time/batch
  double seconds;
  double ops_per_sec;
  std::uint64_t keys;
  TypeCell type[wl::kNumOpTypes];
};

// Every engine the binary can run, in run order — the vocabulary the
// --engines filter validates against (an unknown name is exit 2, not a
// silent no-op run).
constexpr const char* kKnownEngines[] = {
    LlxScxHashMap::kName,
    ShardedMap<LlxScxHashMap>::kName,
    LlxScxBst::kName,
    LlxScxPatricia::kName,
    LlxScxChromatic::kName,
    LlxScxMultiset::kName,
    ShardedMap<LlxScxChromatic>::kName,
};

using EngineFilter = std::vector<std::string>;

bool engine_enabled(const char* name, const EngineFilter& filter) {
  return filter.empty() ||
         std::find(filter.begin(), filter.end(), name) != filter.end();
}

template <class Engine>
void run_engine(const Profile& p, const std::vector<Combo>& combos,
                int threads, int batch, const EngineFilter& filter,
                std::vector<Row>& rows) {
  if (!engine_enabled(Engine::kName, filter)) return;
  std::uint64_t seed = 0xE12;  // same seeds per combo across batch widths
  for (const Combo& combo : combos) {
    Engine c;  // fresh per combo: every regime's grow phase starts empty
    const wl::RegimeSpec regime = wl::make_regime(
        combo.stream, combo.mix, p.grow_ms, p.steady_ms, p.churn_ms, batch);
    const std::vector<wl::PhaseResult> phases =
        wl::run_regime(c, regime, threads, seed);
    seed += 0x100000;
    for (const wl::PhaseResult& ph : phases) {
      Row r{Engine::kName, combo.stream.name(), combo.mix.name,
            ph.phase,      ph.stream,           ph.mix,
            ph.threads,    ph.batch,            ph.batch > 1,
            ph.seconds,    ph.ops_per_sec(),    ph.keys,
            {}};
      for (unsigned i = 0; i < wl::kNumOpTypes; ++i) {
        const wl::OpTypeResult& t = ph.per_type[i];
        r.type[i] = {t.ops,           t.latency.total(),
                     t.latency.p50(), t.latency.p95(),
                     t.latency.p99(), t.latency.p999(),
                     t.latency.saturated()};
      }
      rows.push_back(r);
    }
  }
  // Each engine's garbage drains before the next engine allocates.
  Epoch::drain_all_for_testing();
}

void run_all_engines(const Profile& p, const std::vector<Combo>& combos,
                     int threads, int batch, const EngineFilter& filter,
                     std::vector<Row>& rows) {
  run_engine<LlxScxHashMap>(p, combos, threads, batch, filter, rows);
  run_engine<ShardedMap<LlxScxHashMap>>(p, combos, threads, batch, filter,
                                        rows);
  if (!p.all_engines && filter.empty()) {
    run_engine<LlxScxChromatic>(p, combos, threads, batch, filter, rows);
    return;
  }
  run_engine<LlxScxBst>(p, combos, threads, batch, filter, rows);
  run_engine<LlxScxPatricia>(p, combos, threads, batch, filter, rows);
  run_engine<LlxScxChromatic>(p, combos, threads, batch, filter, rows);
  run_engine<LlxScxMultiset>(p, combos, threads, batch, filter, rows);
  run_engine<ShardedMap<LlxScxChromatic>>(p, combos, threads, batch, filter,
                                          rows);
}

bool emit_json(const char* path, const std::vector<Row>& rows) {
  return bench::emit_json_envelope(
      path, "bench_workload", rows.size(), [&](std::FILE* f, std::size_t i) {
        const Row& r = rows[i];
        std::fprintf(f,
                     "{\"engine\": \"%s\", \"dist\": \"%s\", \"mix\": \"%s\", "
                     "\"phase\": \"%s\", \"phase_stream\": \"%s\", "
                     "\"phase_mix\": \"%s\", \"threads\": %d, "
                     "\"batch\": %d, \"batched\": %s, "
                     "\"seconds\": %.4f, \"ops_per_sec\": %.0f, "
                     "\"keys\": %llu, \"ops\": {",
                     r.engine, r.dist, r.mix, r.phase, r.phase_stream,
                     r.phase_mix, r.threads, r.batch,
                     r.batched ? "true" : "false", r.seconds, r.ops_per_sec,
                     static_cast<unsigned long long>(r.keys));
        for (unsigned t = 0; t < wl::kNumOpTypes; ++t) {
          std::fprintf(f, "%s\"%s\": %llu", t ? ", " : "",
                       wl::op_name(static_cast<wl::OpType>(t)),
                       static_cast<unsigned long long>(r.type[t].ops));
        }
        std::fprintf(f, "}, \"lat_ns\": {");
        for (unsigned t = 0; t < wl::kNumOpTypes; ++t) {
          const TypeCell& c = r.type[t];
          std::fprintf(
              f,
              "%s\"%s\": {\"samples\": %llu, \"p50\": %llu, \"p95\": %llu, "
              "\"p99\": %llu, \"p999\": %llu, \"saturated\": %llu}",
              t ? ", " : "", wl::op_name(static_cast<wl::OpType>(t)),
              static_cast<unsigned long long>(c.samples),
              static_cast<unsigned long long>(c.p50),
              static_cast<unsigned long long>(c.p95),
              static_cast<unsigned long long>(c.p99),
              static_cast<unsigned long long>(c.p999),
              static_cast<unsigned long long>(c.saturated));
        }
        std::fprintf(f, "}}");
      });
}

std::string us(std::uint64_t ns) { return bench::fmt(ns / 1e3, 1); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--profile=smoke|paper|prod] "
               "[--mix=ycsb-a|ycsb-b|ycsb-c|ycsb-e|R:I:E|R:I:E:S] "
               "[--batch=N] [--engines=<name,...>] [--json=<file>]\n"
               "engines:",
               argv0);
  for (const char* name : kKnownEngines) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// "--engines=a,b,c" operand: a comma-separated kName list. Any token that
// is not a known engine name is a usage error — a typo must fail loudly,
// not silently benchmark nothing.
std::optional<EngineFilter> parse_engines(const char* csv) {
  EngineFilter out;
  const char* p = csv;
  while (*p != '\0') {
    const char* comma = std::strchr(p, ',');
    const std::size_t len =
        comma != nullptr ? static_cast<std::size_t>(comma - p) : std::strlen(p);
    if (len == 0) return std::nullopt;
    std::string name(p, len);
    const bool known =
        std::any_of(std::begin(kKnownEngines), std::end(kKnownEngines),
                    [&](const char* k) { return name == k; });
    if (!known) {
      std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
      return std::nullopt;
    }
    out.push_back(std::move(name));
    p = comma != nullptr ? comma + 1 : p + len;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

bool run(const Profile& profile, const wl::OpMix* mix_override, int batch,
         const EngineFilter& engines, const char* json_path) {
  // LLXSCX_BENCH_MS overrides every phase duration; LLXSCX_BENCH_THREADS
  // caps the profile's thread count (bench_common.h conventions).
  Profile p = profile;
  p.grow_ms = env_phase_millis(p.grow_ms);
  p.steady_ms = env_phase_millis(p.steady_ms);
  p.churn_ms = env_phase_millis(p.churn_ms);
  const int threads = std::min(p.threads, bench::thread_cap());

  std::vector<Combo> combos = combos_for(p);
  if (mix_override != nullptr) {
    for (Combo& c : combos) c.mix = *mix_override;
  }

  std::printf(
      "E12: production workload driver — profile '%s' (%llu-key space, "
      "grow/steady/churn %d/%d/%d ms, %d threads), %zu combos, latency "
      "sampled 1-in-%llu%s\n\n",
      p.name, static_cast<unsigned long long>(p.key_space), p.grow_ms,
      p.steady_ms, p.churn_ms, threads, combos.size(),
      static_cast<unsigned long long>(wl::kLatencySampleEvery),
      batch > 1 ? ", scalar + batched passes" : "");

  // Scalar rows first, then (when --batch=N) the same grid re-run through
  // N-op container_apply_batch dispatch — identical seeds per combo, so
  // the batch column of a row pair is the only variable.
  std::vector<Row> rows;
  run_all_engines(p, combos, threads, 1, engines, rows);
  if (batch > 1) run_all_engines(p, combos, threads, batch, engines, rows);

  bench::Table t({"engine", "dist", "mix", "phase", "batch", "ops/s",
                  "rd p50us", "rd p99us", "ins p50us", "ins p99us",
                  "sc p50us", "sc p99us", "keys"});
  for (const Row& r : rows) {
    const TypeCell& rd = r.type[static_cast<unsigned>(wl::OpType::kRead)];
    const TypeCell& in = r.type[static_cast<unsigned>(wl::OpType::kInsert)];
    const TypeCell& sc = r.type[static_cast<unsigned>(wl::OpType::kScan)];
    t.add_row({r.engine, r.dist, r.mix, r.phase, bench::fmt_u64(r.batch),
               bench::fmt(r.ops_per_sec / 1e6, 3) + "M", us(rd.p50),
               us(rd.p99), us(in.p50), us(in.p99), us(sc.p50), us(sc.p99),
               bench::fmt_u64(r.keys)});
  }
  t.print();
  std::printf(
      "\nnote: 'dist'/'mix' name the regime's steady combination; grow "
      "phases always run the sequential ramp under the insert-heavy mix, "
      "churn the balanced insert/erase mix. Latency columns are sampled "
      "log-bucket percentiles (bucket width <= 6.25%%); batch > 1 rows "
      "book batch-time/batch per op.\n");
  return json_path == nullptr || emit_json(json_path, rows);
}

int main_impl(int argc, char** argv) {
  const Profile* profile = &kProfiles[1];  // paper
  const char* json_path = nullptr;
  static char mix_name_buf[32];
  std::optional<wl::OpMix> mix_override;
  EngineFilter engines;
  int batch = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile = nullptr;
      for (const Profile& p : kProfiles) {
        if (std::strcmp(arg + 10, p.name) == 0) profile = &p;
      }
      if (profile == nullptr) usage(argv[0]);
    } else if (std::strncmp(arg, "--mix=", 6) == 0) {
      mix_override = wl::parse_op_mix(arg + 6, mix_name_buf,
                                      sizeof(mix_name_buf));
      if (!mix_override) usage(argv[0]);
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      const std::optional<int> b = wl::parse_batch(arg + 8);
      if (!b) usage(argv[0]);
      batch = *b;
    } else if (std::strncmp(arg, "--engines=", 10) == 0) {
      std::optional<EngineFilter> f = parse_engines(arg + 10);
      if (!f) usage(argv[0]);
      engines = std::move(*f);
    } else if (std::strncmp(arg, "--json=", 7) == 0 && arg[7] != '\0') {
      json_path = arg + 7;
    } else {
      usage(argv[0]);
    }
  }
  return run(*profile, mix_override ? &*mix_override : nullptr, batch,
             engines, json_path)
             ? 0
             : 1;
}

}  // namespace
}  // namespace llxscx

int main(int argc, char** argv) { return llxscx::main_impl(argc, argv); }
