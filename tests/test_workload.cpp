// The workload subsystem (DESIGN.md §13): key-stream distributions
// against their analytic masses, op-mix picking and parsing, the
// log-bucket latency histogram's bucket math / merge / percentile
// monotonicity, and a smoke run of the generic driver over two engines
// with op-count conservation checked against the oracle mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "reclaim/epoch.h"
#include "service/sharded_map.h"
#include "tests/test_common.h"
#include "util/random.h"
#include "workload/driver.h"
#include "workload/key_stream.h"
#include "workload/latency_histogram.h"
#include "workload/op_mix.h"

namespace llxscx::workload {
namespace {

// ---------------------------------------------------------------- random

TEST(Random, NextDoubleInUnitIntervalAndDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_EQ(d, b.next_double());  // pure function of seed + call sequence
  }
}

TEST(Random, LemireBelowBoundsAndDeterminism) {
  Xoshiro256 a(11), b(11);
  for (const std::uint64_t bound : {1ull, 2ull, 100ull, 12345ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = a.below(bound);
      EXPECT_LT(v, bound);
      EXPECT_EQ(v, b.below(bound));
    }
  }
  EXPECT_EQ(a.below(0), 0u);
}

TEST(Random, LemireBelowIsRoughlyUniform) {
  // 8 cells x 40k draws: every cell within 10% of the expected 5k.
  Xoshiro256 rng(13);
  std::uint64_t cells[8] = {};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++cells[rng.below(8)];
  for (const std::uint64_t c : cells) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 8.0, kDraws / 8.0 * 0.10);
  }
}

// ------------------------------------------------------------ key streams

TEST(KeyStream, UniformStaysInRange) {
  const KeyStreamFactory f(KeyStreamSpec::uniform(100));
  auto s = f.make(21);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = s->next();
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(KeyStream, StreamsAreDeterministicPerSeed) {
  for (const auto& spec :
       {KeyStreamSpec::uniform(1000), KeyStreamSpec::zipfian(1000),
        KeyStreamSpec::hot_set(10, 1000)}) {
    const KeyStreamFactory f(spec);
    auto a = f.make(99), b = f.make(99);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a->next(), b->next()) << spec.name();
  }
}

// The tentpole's statistical pin: empirical top-k mass under a fixed seed
// matches the analytic harmonic mass H_k/H_N the inverse-CDF table was
// built from.
TEST(KeyStream, ZipfianTopKFrequencyMatchesHarmonicMass) {
  constexpr std::uint64_t kSpace = 1000;
  constexpr int kDraws = 200000;
  const KeyStreamFactory f(KeyStreamSpec::zipfian(kSpace, 0.99));
  auto s = f.make(42);
  std::vector<std::uint64_t> count(kSpace + 1, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t k = s->next();
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, kSpace);
    ++count[k];
  }
  for (const std::uint64_t topk : {1ull, 10ull, 100ull}) {
    std::uint64_t hits = 0;
    for (std::uint64_t k = 1; k <= topk; ++k) hits += count[k];
    const double empirical = static_cast<double>(hits) / kDraws;
    const double analytic = f.zipfian_top_k_mass(topk);
    EXPECT_NEAR(empirical, analytic, 0.02)
        << "top-" << topk << " mass off its harmonic value";
  }
  // Rank 1 must dominate: with theta=0.99 over 1000 ranks its mass is
  // ~13%, an order of magnitude above the uniform 0.1%.
  EXPECT_GT(count[1], count[kSpace / 2] * 5);
}

TEST(KeyStream, ZipfianThetaZeroDegeneratesToUniform) {
  const KeyStreamFactory f(KeyStreamSpec::zipfian(100, 0.0));
  auto s = f.make(17);
  std::uint64_t low_half = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) low_half += s->next() <= 50 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(low_half) / kDraws, 0.5, 0.02);
}

TEST(KeyStream, HotSetRatioPinned) {
  constexpr std::uint64_t kHot = 10, kSpace = 1000;
  const KeyStreamFactory f(KeyStreamSpec::hot_set(kHot, kSpace, 80));
  auto s = f.make(5);
  std::uint64_t hot_hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hot_hits += s->next() <= kHot ? 1 : 0;
  // 80% routed hot + the cold draw's own 1% chance of landing <= kHot.
  const double expected = 0.80 + 0.20 * static_cast<double>(kHot) / kSpace;
  EXPECT_NEAR(static_cast<double>(hot_hits) / kDraws, expected, 0.02);
}

TEST(KeyStream, SequentialRampIsSharedAscendingAndWraps) {
  const KeyStreamFactory f(KeyStreamSpec::sequential_ramp(4));
  auto a = f.make(1);
  // Single consumer: dense ascending with wrap-around at key_space.
  EXPECT_EQ(a->next(), 1u);
  EXPECT_EQ(a->next(), 2u);
  EXPECT_EQ(a->next(), 3u);
  EXPECT_EQ(a->next(), 4u);
  EXPECT_EQ(a->next(), 1u);
  // A second stream from the SAME factory continues the shared cursor
  // instead of restarting — the cross-thread ramp property.
  auto b = f.make(2);
  EXPECT_EQ(b->next(), 2u);
  EXPECT_EQ(a->next(), 3u);
}

// ---------------------------------------------------------------- op mix

TEST(OpMix, PresetsAndPickRatios) {
  EXPECT_EQ(kYcsbA.read_pct + kYcsbA.insert_pct + kYcsbA.erase_pct, 100u);
  EXPECT_EQ(kYcsbC.read_pct, 100u);
  Xoshiro256 rng(3);
  std::uint64_t n[kNumOpTypes] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++n[static_cast<unsigned>(kChurnMix.pick(rng))];
  }
  for (unsigned t = 0; t < kNumOpTypes; ++t) {
    const double expected = kChurnMix.pct_of(static_cast<OpType>(t)) / 100.0;
    EXPECT_NEAR(static_cast<double>(n[t]) / kDraws, expected, 0.02);
  }
}

TEST(OpMix, ParserAcceptsNamesAndCustomTriples) {
  char buf[32];
  auto a = parse_op_mix("ycsb-b", buf, sizeof(buf));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->read_pct, 95u);
  auto custom = parse_op_mix("60:30:10", buf, sizeof(buf));
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->read_pct, 60u);
  EXPECT_EQ(custom->insert_pct, 30u);
  EXPECT_EQ(custom->erase_pct, 10u);
  EXPECT_STREQ(custom->name, "60:30:10");
  EXPECT_FALSE(parse_op_mix("60:30:5", buf, sizeof(buf)));   // sums to 95
  EXPECT_FALSE(parse_op_mix("ycsb-z", buf, sizeof(buf)));
  EXPECT_FALSE(parse_op_mix("60:30:10x", buf, sizeof(buf)));  // trailing junk
  EXPECT_FALSE(parse_op_mix("", buf, sizeof(buf)));
  EXPECT_FALSE(parse_op_mix("-1:1:100", buf, sizeof(buf)));  // wraps to 100
  EXPECT_FALSE(parse_op_mix("4294967295:1:100:0", buf, sizeof(buf)));
}

TEST(OpMix, ScanPresetAndQuadParser) {
  char buf[32];
  auto e = parse_op_mix("ycsb-e", buf, sizeof(buf));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->scan_pct, 95u);
  EXPECT_EQ(e->insert_pct, 5u);
  auto quad = parse_op_mix("10:20:30:40", buf, sizeof(buf));
  ASSERT_TRUE(quad.has_value());
  EXPECT_EQ(quad->read_pct, 10u);
  EXPECT_EQ(quad->scan_pct, 40u);
  EXPECT_STREQ(quad->name, "10:20:30:40");
  EXPECT_FALSE(parse_op_mix("10:20:30:50", buf, sizeof(buf)));  // sums to 110
  EXPECT_FALSE(parse_op_mix("10:20:30:40:0", buf, sizeof(buf)));
  EXPECT_FALSE(parse_op_mix("-1:1:100", buf, sizeof(buf)));  // wraps to 100
  EXPECT_FALSE(parse_op_mix("4294967295:1:100:0", buf, sizeof(buf)));
  // The three-field form still parses and leaves scan_pct zeroed.
  auto triple = parse_op_mix("50:25:25", buf, sizeof(buf));
  ASSERT_TRUE(triple.has_value());
  EXPECT_EQ(triple->scan_pct, 0u);
  // pick() honors the fourth band.
  Xoshiro256 rng(9);
  std::uint64_t scans = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    scans += kYcsbE.pick(rng) == OpType::kScan ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(scans) / kDraws, 0.95, 0.02);
}

// -------------------------------------------------------------- histogram

TEST(LatencyHistogram, BucketBoundsContainTheirValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 255ull, 1023ull,
        4096ull, 123456789ull, 1ull << 40, ~0ull}) {
    const std::size_t idx = LatencyHistogram::bucket_of(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucket_lower_bound(idx), v);
    if (idx + 1 < LatencyHistogram::kBuckets) {
      EXPECT_LT(v, LatencyHistogram::bucket_lower_bound(idx + 1));
      // The ≤6.25% relative-width claim (exact below kSubCount).
      const std::uint64_t lo = LatencyHistogram::bucket_lower_bound(idx);
      const std::uint64_t width =
          LatencyHistogram::bucket_lower_bound(idx + 1) - lo;
      if (lo >= LatencyHistogram::kSubCount) {
        EXPECT_LE(static_cast<double>(width),
                  static_cast<double>(lo) / LatencyHistogram::kSubCount);
      }
    }
  }
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  h.record(5);
  EXPECT_EQ(h.p50(), 5u);
  EXPECT_EQ(h.p999(), 5u);
}

TEST(LatencyHistogram, MergeSumsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 300; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.total(), 400u);
  // 25% of mass at 10, 75% at ~1000: p50 lands in the 1000s bucket.
  EXPECT_EQ(a.percentile(0.25), 10u);
  EXPECT_GE(a.p50(), 1000u);
}

TEST(LatencyHistogram, PercentilesAreMonotone) {
  LatencyHistogram h;
  Xoshiro256 rng(23);
  for (int i = 0; i < 50000; ++i) h.record(rng.below(1 << 20));
  EXPECT_EQ(h.total(), 50000u);
  const std::uint64_t p50 = h.p50(), p95 = h.p95(), p99 = h.p99(),
                      p999 = h.p999();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p50, 0u);
}

TEST(LatencyHistogram, EmptyReportsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
}

// Explicit top-bucket saturation: the largest trackable value is NOT
// saturated; kMaxTrackable and beyond clamp into the last bucket, are
// counted in total(), tallied in saturated(), and cap every percentile at
// kMaxTrackable − 1 — no sample ever indexes past the array.
TEST(LatencyHistogram, TopBucketSaturationPinned) {
  EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::kMaxTrackable - 1),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::kMaxTrackable),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);

  LatencyHistogram h;
  h.record(LatencyHistogram::kMaxTrackable - 1);  // boundary: in range
  EXPECT_EQ(h.saturated(), 0u);
  h.record(LatencyHistogram::kMaxTrackable);  // boundary: first saturated
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.saturated(), 2u);
  EXPECT_EQ(h.total(), 3u) << "saturated samples still count";
  EXPECT_EQ(h.p50(), LatencyHistogram::kMaxTrackable - 1);
  EXPECT_EQ(h.p999(), LatencyHistogram::kMaxTrackable - 1)
      << "top percentile is a floor, flagged via saturated()";

  LatencyHistogram other;
  other.record(~std::uint64_t{0});
  h.merge(other);
  EXPECT_EQ(h.saturated(), 3u) << "merge sums the saturation tallies";
  EXPECT_EQ(h.total(), 4u);
}

// ------------------------------------------------------------- the driver

// Smoke the generic driver over two engines — a bare one and a sharded
// wrapper — and check op-count conservation against the oracle mix in
// every phase: total == Σ per-type, per-type shares near the mix's
// percentages, sampling accounting consistent, keys bounded by the space.
template <class Engine>
void drive_and_check() {
  constexpr std::uint64_t kSpace = 1 << 10;
  constexpr int kThreads = 2, kPhaseMs = 40;
  Engine c;
  const RegimeSpec regime = make_regime(KeyStreamSpec::zipfian(kSpace),
                                        kYcsbA, kPhaseMs, kPhaseMs, kPhaseMs);
  const std::vector<PhaseResult> phases =
      run_regime(c, regime, kThreads, /*seed_base=*/0xBEEF);

  ASSERT_EQ(phases.size(), 3u);
  EXPECT_STREQ(phases[0].phase, "grow");
  EXPECT_STREQ(phases[1].phase, "steady");
  EXPECT_STREQ(phases[2].phase, "churn");
  EXPECT_STREQ(phases[0].stream, "seq-ramp");
  EXPECT_STREQ(phases[1].mix, "ycsb-a");

  const OpMix* mixes[] = {&kGrowMix, &kYcsbA, &kChurnMix};
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& ph = phases[p];
    EXPECT_GT(ph.total_ops, 0u) << ph.phase;
    EXPECT_GT(ph.seconds, 0.0);

    // Conservation: the total is exactly the per-type sum.
    std::uint64_t sum = 0, samples = 0;
    for (unsigned t = 0; t < kNumOpTypes; ++t) {
      sum += ph.per_type[t].ops;
      samples += ph.per_type[t].latency.total();
    }
    EXPECT_EQ(sum, ph.total_ops) << ph.phase;

    // Sampling accounting: each thread times every kLatencySampleEvery-th
    // op, so Σ samples ∈ [total/K, total/K + threads].
    EXPECT_GE(samples, ph.total_ops / kLatencySampleEvery) << ph.phase;
    EXPECT_LE(samples, ph.total_ops / kLatencySampleEvery + kThreads)
        << ph.phase;

    // Oracle-mix shares, when the phase ran enough ops for the binomial
    // noise to sit well under the 6% tolerance (3σ at n=3000, p=0.5 is
    // ~2.7%; sanitizer builds can land fewer ops in 40 ms — skip then).
    if (ph.total_ops >= 3000) {
      for (unsigned t = 0; t < kNumOpTypes; ++t) {
        const double share = static_cast<double>(ph.per_type[t].ops) /
                             static_cast<double>(ph.total_ops);
        EXPECT_NEAR(share,
                    mixes[p]->pct_of(static_cast<OpType>(t)) / 100.0, 0.06)
            << ph.phase << "/" << op_name(static_cast<OpType>(t));
      }
    }

    // Map engines dedup by key: the live set can never exceed the space.
    EXPECT_LE(ph.keys, kSpace) << ph.phase;
  }
  // The grow phase rams ascending inserts — it must have built a set.
  EXPECT_GT(phases[0].keys, 0u);
}

TEST(WorkloadDriver, SmokeHashMapConservesOpCounts) {
  drive_and_check<LlxScxHashMap>();
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

TEST(WorkloadDriver, SmokeShardedChromaticConservesOpCounts) {
  drive_and_check<ShardedMap<LlxScxChromatic>>();
  Epoch::drain_all_for_testing();
}

// The scan-heavy class: a ycsb-e phase must execute and SAMPLE scans —
// in scalar dispatch, and in batched dispatch too (scans have no BatchOp
// kind, so the driver runs them scalar inline without consuming batch
// slots; conservation must still hold).
template <class Engine>
void drive_scans(int batch) {
  constexpr std::uint64_t kSpace = 1 << 10;
  Engine c;
  for (std::uint64_t k = 1; k <= kSpace; ++k) c.insert(k, 1);
  RegimeSpec regime;
  regime.phases.push_back(
      {"steady", kYcsbE, KeyStreamSpec::uniform(kSpace), 40, batch});
  const std::vector<PhaseResult> phases = run_regime(c, regime, 2, 0xE13);
  ASSERT_EQ(phases.size(), 1u);
  const PhaseResult& ph = phases[0];
  const OpTypeResult& sc = ph.type(OpType::kScan);
  EXPECT_GT(sc.ops, 0u) << "batch=" << batch;
  EXPECT_GT(sc.latency.total(), 0u)
      << "batch=" << batch << ": scans must be latency-sampled";
  std::uint64_t sum = 0;
  for (unsigned t = 0; t < kNumOpTypes; ++t) sum += ph.per_type[t].ops;
  EXPECT_EQ(sum, ph.total_ops) << "batch=" << batch;
  if (ph.total_ops >= 3000) {
    const double share =
        static_cast<double>(sc.ops) / static_cast<double>(ph.total_ops);
    EXPECT_NEAR(share, 0.95, 0.06) << "batch=" << batch;
  }
}

TEST(WorkloadDriver, ScanOpsRunScalarAndInsideBatchedPhases) {
  drive_scans<LlxScxChromatic>(1);
  drive_scans<LlxScxChromatic>(8);
  drive_scans<LlxScxHashMap>(1);
  drive_scans<ShardedMap<LlxScxChromatic>>(8);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx::workload
