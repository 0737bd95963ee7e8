// llxscx_bench — the load generator of the serving benchmark
// (benchmark/README.md).
//
// One process is one trial of one workload. A persistent pool of client
// threads replays per-thread op traces, generated from --seed before any
// timing, against the public serving surface (ShardedMap over an engine).
// The trial is a sequence of setups; each setup
//
//   1. builds a fresh map and prefills it from the pool's threads (timed:
//      setup_s; the same threads then replay, so their thread-local epoch
//      handles, scratch buffers and pools are warm),
//   2. replays every thread's trace `replays` times, each from a common
//      start line (each replay is one timed pass of fixed work; every
//      sample_every-th call is also timed on its own),
//   3. checks every answer against what the inputs imply, and
//   4. destroys the map, which returns what the setup allocated.
//
// Setups repeat until --seconds have elapsed (at least kMinSetups). The
// first setup and its first replay warm the process (a fresh heap faults
// its pages in) and are marked as warm-up. The last line of stdout is one
// JSON object with every setup's and pass's raw values; benchmark/run.py
// takes the medians. A fresh map per setup keeps memory bounded even though
// today's engines grow the heap under churn.
//
// With --trace the same traces drive the layer ladder instead (locked
// std::map, then the engine bare under LeakyManager, EbrManager and
// PoolManager, then ShardedMap with one shard and with the default four),
// followed by counted setups on the sharded map in which every 64th call
// runs inside steps_of and becomes a span. That mode needs a build with
// LLXSCX_COUNT_STEPS=ON; its spans go to --trace-out as Chrome trace JSON.
//
// This file owns its key generation, traces, verification and percentile
// maths, and reaches the program only through public headers, so later
// changes to src/workload/ or bench/ cannot move this yardstick.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/batch.h"
#include "service/sharded_map.h"

namespace {

using namespace llxscx;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time the calling thread has run for. Time it spent runnable but off
// the CPU (preempted by other processes, or stolen by the hypervisor) does
// not count.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ workloads

enum class Shape : std::uint8_t { kPoint, kRange, kBatch };
enum class EngineKind : std::uint8_t { kChromatic, kHashMap };

struct Spec {
  const char* name;
  EngineKind engine;
  Shape shape;
  std::uint64_t key_space;   // keys are 1..key_space
  std::uint64_t prefill;     // keys present after setup: a seeded sample
  std::uint64_t ops;         // per thread per pass; a batch call carries kBatch
  double write_frac;         // share of ops that write
  bool zipf;                 // zipfian θ=0.99 key ranks (else uniform keys)
  bool churn;                // writes are 50/50 insert/erase of any key
  bool bulk;                 // prefill through insert_all in ascending runs
  std::size_t sample_every;  // latency sample stride over calls
  int replays;               // measured passes per setup
};

constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kScanSpan = 100;
constexpr double kZipfTheta = 0.99;
// Odd, so rank -> (rank * kScatter) mod 2^k is a bijection on a power-of-two
// key space: the hottest ranks land far apart in the tree instead of being
// neighbours that share a root-to-leaf path.
constexpr std::uint64_t kScatter = 0xD6E8FEB86659FD93ull;

// Passes are fixed work (the same calls on every commit), each under a
// tenth of a second on 2 threads. Today's chromatic tree holds ~1.7 KB per
// key, because each node pins the last SCX descriptor that froze it, so its
// nodes lie a page or so apart. The 2^11-key trees take ~4 MB: their nodes
// fit in a core's L2 and their pages in its TLB. Larger maps make every
// descent a chain of cache and TLB misses whose cost follows the memory
// traffic of whatever else shares the host: in alternating runs, 2^14-key
// trees cost point-read and range-scan 1.35-1.8x as much per op and spread
// 1.6-2.5x as much from run to run, which buried the read path's own
// layers. hash-batch's 3 x 2^13 keys make each shard double its 1024
// buckets once during prefill and finish that migration before the pass. Where a pass leaves the map as it
// found it, one setup serves several passes. point-churn and hash-batch
// rebuild per pass: their passes grow the heap (by ~600 and ~400 B per
// update), so a later pass would run on a different heap. range-scan's map
// is bulk-loaded in key order, as a scan-served table would be.
constexpr std::size_t kBulkRun = 64;
constexpr Spec kSpecs[] = {
    {"point-read", EngineKind::kChromatic, Shape::kPoint, 1u << 11, 1u << 11,
     600'000, 0.05, true, false, false, 8, 4},
    {"point-churn", EngineKind::kChromatic, Shape::kPoint, 1u << 11, 1u << 10,
     50'000, 1.0, false, true, false, 8, 1},
    {"range-scan", EngineKind::kChromatic, Shape::kRange, 1u << 11, 1u << 11,
     20'000, 0.05, false, false, true, 1, 4},
    {"hash-batch", EngineKind::kHashMap, Shape::kBatch, 3u << 13, 3u << 13,
     50'000, 0.5, false, false, false, 1, 1},
};

enum class Kind : std::uint8_t { kGet, kInsert, kErase, kScan };

// Latency / step-count categories: the public call that was timed.
enum Cat : std::uint8_t { kCatGet, kCatUpdate, kCatScan, kCatBatch, kNumCats };
constexpr const char* kCatNames[kNumCats] = {"get", "update", "scan", "batch"};

struct Op {
  std::uint64_t key;  // the scan's lo for kScan
  Kind kind;
};

struct ThreadTrace {
  std::vector<Op> ops;         // kPoint / kRange shapes
  std::vector<BatchOp> batch;  // kBatch shape: calls × kBatch
  std::size_t calls() const { return batch.empty() ? ops.size() : batch.size() / kBatch; }
};

// splitmix64: tiny, seedable, and identical on every platform.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

Rng stream(std::uint64_t seed, std::uint64_t id) {
  return Rng{seed * 0xD1B54A32D192ED03ull + (id + 1) * 0x9E3779B97F4A7C15ull};
}

// YCSB's zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"): O(n) set-up, O(1) per draw, ranks in [0, n).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    for (std::uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    second_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - second_ / zetan_);
  }
  std::uint64_t rank(Rng& r) const {
    const double u = r.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < second_) return 1;
    const auto k = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(k, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0;
  double second_ = 0;  // zeta(2, theta)
  double alpha_ = 0;
  double eta_ = 0;
};

struct Inputs {
  Spec spec;
  std::vector<std::uint64_t> prefill;  // insertion order (shuffled)
  std::vector<ThreadTrace> traces;
};

std::uint64_t floor_pow2(std::uint64_t x) {
  std::uint64_t p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

// Everything a trial replays, derived from (spec, scale, seed, threads).
Inputs make_inputs(Spec sp, double scale, std::uint64_t seed, int threads) {
  if (scale != 1.0) {
    const double fill = static_cast<double>(sp.prefill) / static_cast<double>(sp.key_space);
    sp.key_space = std::max<std::uint64_t>(
        1024, floor_pow2(static_cast<std::uint64_t>(static_cast<double>(sp.key_space) * scale)));
    sp.prefill = static_cast<std::uint64_t>(static_cast<double>(sp.key_space) * fill);
    sp.ops = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(static_cast<double>(sp.ops) * scale));
  }
  Inputs in{sp, {}, {}};
  const std::uint64_t n = sp.key_space;
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t i = 0; i < n; ++i) keys[i] = i + 1;
  Rng shuf = stream(seed, 0);
  for (std::uint64_t i = n - 1; i > 0; --i) std::swap(keys[i], keys[shuf.below(i + 1)]);
  keys.resize(sp.prefill);
  if (sp.bulk) std::sort(keys.begin(), keys.end());
  in.prefill = std::move(keys);

  std::unique_ptr<Zipf> zipf;
  if (sp.zipf) zipf = std::make_unique<Zipf>(n, kZipfTheta);
  in.traces.resize(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    Rng r = stream(seed, 1 + static_cast<std::uint64_t>(t));
    const auto key = [&] {
      if (zipf) return ((zipf->rank(r) * kScatter) & (n - 1)) + 1;
      return r.below(n) + 1;
    };
    ThreadTrace& tr = in.traces[static_cast<std::size_t>(t)];
    if (sp.shape == Shape::kBatch) {
      tr.batch.reserve(sp.ops);
      for (std::uint64_t i = 0; i < sp.ops / kBatch * kBatch; ++i) {
        const bool write = r.uniform() < sp.write_frac;
        const std::uint64_t k = key();
        tr.batch.push_back(write ? BatchOp::insert(k, 1) : BatchOp::get(k));
      }
      continue;
    }
    tr.ops.reserve(sp.ops);
    const Kind read = sp.shape == Shape::kRange ? Kind::kScan : Kind::kGet;
    for (std::uint64_t i = 0; i < sp.ops; ++i) {
      Kind kind = read;
      if (r.uniform() < sp.write_frac) {
        kind = sp.churn && (r.next() & 1) ? Kind::kErase : Kind::kInsert;
      }
      tr.ops.push_back({key(), kind});
    }
  }
  return in;
}

// ------------------------------------------------------- the locked rung

// The ladder's reference point: std::map behind a reader-writer lock.
// insert is insert-if-absent, matching the engines' boolean answers.
class LockedMap {
 public:
  static constexpr const char* kName = "locked-std-map";
  bool insert(std::uint64_t key, std::uint64_t value) {
    std::unique_lock lock(mu_);
    return m_.emplace(key, value).second;
  }
  bool erase(std::uint64_t key) {
    std::unique_lock lock(mu_);
    return m_.erase(key) != 0;
  }
  bool contains(std::uint64_t key) const {
    std::shared_lock lock(mu_);
    return m_.count(key) != 0;
  }
  std::size_t size() const {
    std::shared_lock lock(mu_);
    return m_.size();
  }
  std::size_t range(std::uint64_t lo, std::uint64_t hi, RangeOut& out) const {
    std::shared_lock lock(mu_);
    const std::size_t base = out.size();
    for (auto it = m_.lower_bound(lo); it != m_.end() && it->first <= hi; ++it) {
      out.emplace_back(it->first, it->second);
    }
    return out.size() - base;
  }

 private:
  mutable std::shared_mutex mu_;  // guards m_
  std::map<std::uint64_t, std::uint64_t> m_;
};

// ----------------------------------------------------------- memory

std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

std::uint64_t mem_total_bytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return 0;
  unsigned long long kb = 0;
  const int got = std::fscanf(f, "MemTotal: %llu kB", &kb);
  std::fclose(f);
  return got == 1 ? kb * 1024 : 0;
}

// Set by the memory guard (or a worker's exception); every loop that runs
// on the pool polls it and stops early.
std::atomic<bool> g_stop{false};
std::string g_stop_why;  // written by the main thread only

// ------------------------------------------------------------- spans

// A completed span: [t0, t1] in ns since the process's time origin. Ids
// encode (thread, phase, trace index), so every id is unique and < 2^53.
struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t t0;
  std::int64_t t1;
  std::uint32_t name;  // index into Trial::names
};

struct CounterEvent {
  std::int64_t t;
  std::uint64_t limbo;
  std::uint64_t freed;
  std::uint64_t rss;
};

const Clock::time_point g_origin = Clock::now();

std::int64_t ns_since_origin(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_origin).count();
}

constexpr std::size_t kSpanEvery = 64;

// How one thread's calls are traced during one pass: op spans go to buf
// (nullptr: none); a full buffer drops spans (counted) rather than
// allocating mid-pass. count_steps runs the same calls inside steps_of.
struct OpTracer {
  std::vector<Span>* buf;
  std::uint64_t* dropped;
  std::uint64_t id_base;
  std::uint64_t parent;
  std::uint32_t names[kNumCats];
  bool count_steps;
};

// ------------------------------------------------------------ replay

struct Sample {
  std::uint32_t ns;
  Cat cat;
};

// One thread's results for one pass.
struct ThreadOut {
  std::vector<Sample> lat;
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;  // churn tallies: calls that returned true
  std::uint64_t erased = 0;
  Clock::time_point end;
  double cpu_s = 0;  // the thread's CPU time over its replay
  // Traced passes only: steps of the calls run inside steps_of.
  StepCounts steps[kNumCats];
  std::uint64_t step_calls[kNumCats] = {};
  std::uint64_t step_ops = 0;
  std::uint64_t step_updates = 0;

  void reset(std::size_t samples) {
    *this = ThreadOut{};
    lat.reserve(samples);
  }
};

std::uint32_t ns_of(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX));
}

// Replays one thread's whole trace on m and checks each answer.
// flip_at inverts the expected answer of one call (the self-test's planted
// failure). Every sample_every-th call is timed with two clock reads around
// the public call; with a tracer every kSpanEvery-th call is also a span
// and, when counting, runs inside steps_of.
template <class M>
void replay(M& m, const Spec& sp, const ThreadTrace& tr, std::size_t flip_at, ThreadOut& o,
            const OpTracer* tc) {
  const std::size_t n = tr.calls();
  RangeOut out;
  out.reserve(kScanSpan);
  BatchResult res[kBatch];
  std::uint64_t updates_in_call = 0;
  const auto call = [&](std::size_t i) -> Cat {
    if (sp.shape == Shape::kBatch) {
      const BatchOp* ops = &tr.batch[i * kBatch];
      container_apply_batch(m, ops, kBatch, res);
      updates_in_call = 0;
      for (std::size_t j = 0; j < kBatch; ++j) {
        const bool is_get = ops[j].kind == BatchOpKind::kGet;
        updates_in_call += !is_get;
        // Every key is present: gets find it, upserts replace it.
        if ((res[j].ok != is_get) != (i * kBatch + j == flip_at)) ++o.failed;
      }
      o.ops += kBatch;
      o.updates += updates_in_call;
      return kCatBatch;
    }
    const Op& op = tr.ops[i];
    bool ok = false;
    Cat cat = kCatUpdate;
    switch (op.kind) {
      case Kind::kGet:
        ok = m.contains(op.key);
        cat = kCatGet;
        break;
      case Kind::kInsert: {
        const bool added = m.insert(op.key, 1);
        o.inserted += added;
        ok = !added;  // outside churn, writes only upsert present keys
        break;
      }
      case Kind::kErase:
        o.erased += m.erase(op.key);
        break;
      case Kind::kScan: {
        out.clear();
        container_range(m, op.key, op.key + (kScanSpan - 1), out);
        const std::uint64_t last = std::min(op.key + (kScanSpan - 1), sp.key_space);
        ok = out.size() == last - op.key + 1;
        for (std::size_t j = 0; ok && j < out.size(); ++j) {
          ok = out[j].first == op.key + j && out[j].second == 1;
        }
        cat = kCatScan;
        break;
      }
    }
    updates_in_call = cat == kCatUpdate;
    o.updates += updates_in_call;
    ++o.ops;
    // Churn answers depend on other threads; they are checked in total.
    if (!sp.churn && (!ok != (i == flip_at))) ++o.failed;
    return cat;
  };

  for (std::size_t i = 0; i < n; ++i) {
    if ((i & 1023) == 0 && g_stop.load(std::memory_order_relaxed)) return;
    const bool timed = i % sp.sample_every == 0;
    if (tc != nullptr && i % kSpanEvery == 0) {
      Cat cat = kCatGet;
      const auto t0 = Clock::now();
      if (tc->count_steps) {
        const std::uint64_t ops_before = o.ops;
        const StepCounts sc = steps_of([&] { cat = call(i); });
        o.steps[cat] += sc;
        ++o.step_calls[cat];
        o.step_ops += o.ops - ops_before;
        o.step_updates += updates_in_call;
      } else {
        cat = call(i);
      }
      const auto t1 = Clock::now();
      if (timed) o.lat.push_back({ns_of(t1 - t0), cat});
      if (tc->buf == nullptr) continue;
      if (tc->buf->size() < tc->buf->capacity()) {
        tc->buf->push_back(
            {tc->id_base | i, tc->parent, ns_since_origin(t0), ns_since_origin(t1), tc->names[cat]});
      } else {
        ++*tc->dropped;
      }
      continue;
    }
    if (!timed) {
      call(i);
      continue;
    }
    const auto t0 = Clock::now();
    const Cat cat = call(i);
    const auto t1 = Clock::now();
    o.lat.push_back({ns_of(t1 - t0), cat});
  }
}

// -------------------------------------------------------------- pool

// Persistent client threads. run() hands every worker the same task and,
// while they work, calls tick() on the calling thread every 50 ms.
class Pool {
 public:
  explicit Pool(int n) : n_(n) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
  }
  ~Pool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int size() const { return n_; }

  void run(const std::function<void(int)>& task, const std::function<void()>& tick) {
    {
      std::lock_guard lock(mu_);
      task_ = &task;
      pending_ = n_;
      ++gen_;
    }
    cv_.notify_all();
    std::unique_lock lock(mu_);
    while (!done_cv_.wait_for(lock, std::chrono::milliseconds(50), [&] { return pending_ == 0; })) {
      lock.unlock();
      tick();
      lock.lock();
    }
    task_ = nullptr;
  }

 private:
  void loop(int tid) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* task = nullptr;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || gen_ != seen; });
        if (stop_) return;
        seen = gen_;
        task = task_;
      }
      try {
        (*task)(tid);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "llxscx_bench: worker %d: %s\n", tid, e.what());
        g_stop.store(true);
      }
      std::lock_guard lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  const int n_;
  std::mutex mu_;  // guards task_, pending_, gen_, stop_
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  int pending_ = 0;
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- setups

struct TrialFailed {
  std::string why;
};

// At least two setups besides the warm-up one, however short --seconds is.
constexpr int kMinSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  double scale = 1.0;
  bool trace = false;
  bool corrupt = false;
  std::string trace_out;
};

// Per-trial state shared by every setup.
struct Trial {
  Trial(const Options& o, const Inputs& i, Pool& p, std::uint64_t limit)
      : opt(o), in(i), pool(p), rss_limit(limit), outs(static_cast<std::size_t>(p.size())) {}

  const Options& opt;
  const Inputs& in;
  Pool& pool;
  std::uint64_t rss_limit;
  std::uint64_t rss_max = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<ThreadOut> outs;
  // Tracing state (traced mode only).
  std::vector<std::vector<Span>> op_spans;  // per worker
  std::vector<std::uint64_t> dropped;       // per worker
  std::vector<Span> main_spans;
  std::vector<std::string> names;
  std::vector<CounterEvent> counters;
  std::function<void(CounterEvent&)> sample;  // set during counted setups
  std::uint64_t next_main_id = 1;              // main-thread span ids: tid 0

  // Memory guard (and, when tracing, the counter sampler); runs on the main
  // thread every 50 ms while the pool works.
  void tick() {
    const std::uint64_t rss = rss_bytes();
    rss_max = std::max(rss_max, rss);
    if (rss > rss_limit && !g_stop.load()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "resident memory %.2f GiB passed the guard of %.2f GiB",
                    static_cast<double>(rss) / (1u << 30), static_cast<double>(rss_limit) / (1u << 30));
      g_stop_why = buf;
      g_stop.store(true);
    }
    if (sample) counter(rss);
  }

  // Records a reclaim/RSS counter event; returns the domains' freed total.
  std::uint64_t counter(std::uint64_t rss) {
    CounterEvent ev{ns_since_origin(Clock::now()), 0, 0, rss};
    sample(ev);
    counters.push_back(ev);
    return ev.freed;
  }

  void run(const std::function<void(int)>& task) {
    pool.run(task, [this] { tick(); });
    if (g_stop.load()) {
      throw TrialFailed{g_stop_why.empty() ? "a worker failed" : g_stop_why};
    }
  }

  std::uint32_t name_id(const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) return static_cast<std::uint32_t>(it - names.begin());
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }

  // Opens a main-thread span; returns its index for end_span.
  std::size_t begin_span(const std::string& name, std::uint64_t parent) {
    main_spans.push_back({next_main_id++, parent, ns_since_origin(Clock::now()), 0, name_id(name)});
    return main_spans.size() - 1;
  }
  void end_span(std::size_t ix) { main_spans[ix].t1 = ns_since_origin(Clock::now()); }
};

struct LatStats {
  std::uint64_t n = 0;
  double p50 = 0, p99 = 0, p999 = 0;  // µs
};

// Exact order statistics (nearest rank) of the samples.
LatStats lat_stats(std::vector<std::uint32_t>& v) {
  LatStats s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1] / 1000.0;
  };
  s.p50 = at(0.50);
  s.p99 = at(0.99);
  s.p999 = at(0.999);
  return s;
}

// One measured pass: a replay of every thread's trace.
struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;  // summed over the client threads
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
  std::uint64_t freed = 0;  // records the domains freed during the pass
  LatStats all;
  LatStats cat[kNumCats];
  StepCounts steps[kNumCats];  // traced passes only
  std::uint64_t step_calls[kNumCats] = {};
  std::uint64_t step_ops = 0;
  std::uint64_t step_updates = 0;
};

struct SetupResult {
  double setup_s = 0;
  std::uint64_t heap_before = 0;  // before construction
  std::uint64_t heap_setup = 0;   // after prefill
  std::uint64_t heap_end = 0;     // after the first pass
  std::vector<PassResult> passes;
};

// How a traced setup is recorded: its rung name (or "counted"), its parent
// span, a phase number unique among phases that record op spans (part of
// their ids), whether its first pass records op spans, and whether calls
// run inside steps_of.
struct PhaseTrace {
  std::string rung;
  std::uint64_t parent;
  std::uint32_t phase;
  bool op_spans;
  bool count_steps;
};

// Runs one pass of `in` on m and folds the answers into the trial's tallies.
template <class M>
PassResult run_replay(Trial& tr, const Inputs& in, M& m, const PhaseTrace* pt, bool op_spans) {
  const Spec& sp = in.spec;
  const int threads = tr.pool.size();
  const std::size_t calls = in.traces[0].calls();
  for (ThreadOut& o : tr.outs) o.reset(calls / sp.sample_every + 1);
  std::size_t span = 0;
  std::vector<OpTracer> tracers;
  if (pt != nullptr) {
    span = tr.begin_span(pt->rung + ".measure", pt->parent);
    std::uint32_t names[kNumCats];
    for (int c = 0; c < kNumCats; ++c) names[c] = tr.name_id(pt->rung + "." + kCatNames[c]);
    for (int t = 0; t < threads; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      OpTracer ot{op_spans ? &tr.op_spans[ut] : nullptr, &tr.dropped[ut],
                  (static_cast<std::uint64_t>(t + 1) << 48) | (std::uint64_t{pt->phase} << 40),
                  tr.main_spans[span].id, {}, pt->count_steps};
      std::copy(std::begin(names), std::end(names), ot.names);
      tracers.push_back(ot);
    }
  }
  PassResult r;
  const std::uint64_t freed_before = tr.sample ? tr.counter(rss_bytes()) : 0;
  Clock::time_point start;
  std::barrier line(threads, [&start]() noexcept { start = Clock::now(); });
  tr.run([&](int t) {
    const auto ut = static_cast<std::size_t>(t);
    const std::size_t flip = tr.opt.corrupt && t == 0 ? 0 : SIZE_MAX;
    line.arrive_and_wait();
    const double cpu0 = thread_cpu_s();
    replay(m, sp, in.traces[ut], flip, tr.outs[ut], tracers.empty() ? nullptr : &tracers[ut]);
    tr.outs[ut].end = Clock::now();
    tr.outs[ut].cpu_s = thread_cpu_s() - cpu0;
  });
  Clock::time_point end = start;
  for (const ThreadOut& o : tr.outs) end = std::max(end, o.end);
  r.wall_s = seconds_between(start, end);
  if (tr.sample) r.freed = tr.counter(rss_bytes()) - freed_before;
  if (pt != nullptr) tr.end_span(span);

  std::vector<std::uint32_t> all, per[kNumCats];
  for (const ThreadOut& o : tr.outs) {
    r.ops += o.ops;
    r.updates += o.updates;
    r.cpu_s += o.cpu_s;
    tr.failed += o.failed;
    for (const Sample& s : o.lat) {
      all.push_back(s.ns);
      per[s.cat].push_back(s.ns);
    }
    for (int c = 0; c < kNumCats; ++c) {
      r.steps[c] += o.steps[c];
      r.step_calls[c] += o.step_calls[c];
    }
    r.step_ops += o.step_ops;
    r.step_updates += o.step_updates;
  }
  tr.attempted += r.ops;
  r.all = lat_stats(all);
  for (int c = 0; c < kNumCats; ++c) r.cat[c] = lat_stats(per[c]);
  return r;
}

// One setup: build a fresh M, prefill it from `in`, run `replays` passes of
// its traces, verify, destroy. Throws TrialFailed on a guard stop.
template <class M, class Make>
SetupResult run_setup(Trial& tr, const Inputs& in, Make&& make, int replays, const PhaseTrace* pt) {
  const int threads = tr.pool.size();
  SetupResult r;
  std::size_t span = 0;
  if (pt != nullptr) span = tr.begin_span(pt->rung + ".setup", pt->parent);
  r.heap_before = heap_in_use();
  const auto s0 = Clock::now();
  std::unique_ptr<M> m = make();
  std::atomic<std::uint64_t> prefilled{0};
  tr.run([&](int t) {
    const std::size_t n = in.prefill.size();
    const std::size_t b = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
    const std::size_t e = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
    std::uint64_t added = 0;
    if (in.spec.bulk) {
      for (std::size_t i = b; i < e && !g_stop.load(std::memory_order_relaxed); i += kBulkRun) {
        added += container_insert_all(*m, &in.prefill[i], std::min(kBulkRun, e - i), 1);
      }
    } else {
      for (std::size_t i = b; i < e; ++i) {
        if (((i - b) & 1023) == 0 && g_stop.load(std::memory_order_relaxed)) break;
        added += m->insert(in.prefill[i], 1);
      }
    }
    prefilled.fetch_add(added);
  });
  r.setup_s = seconds_between(s0, Clock::now());
  r.heap_setup = heap_in_use();
  if (pt != nullptr) tr.end_span(span);
  // Every prefill key is distinct, so every insert must have added one.
  tr.failed += in.prefill.size() - prefilled.load();

  std::uint64_t expect = in.prefill.size();
  for (int p = 0; p < replays; ++p) {
    r.passes.push_back(run_replay(tr, in, *m, pt, pt != nullptr && pt->op_spans && p == 0));
    if (p == 0) r.heap_end = heap_in_use();
    if (in.spec.churn) {
      // Quiescent check: what the replies say was added and removed must
      // account for the size exactly.
      for (const ThreadOut& o : tr.outs) expect = expect + o.inserted - o.erased;
      const std::uint64_t want = expect + (tr.opt.corrupt ? 1 : 0);
      const std::uint64_t size = m->size();
      tr.failed += size > want ? size - want : want - size;
    }
  }
  m.reset();
  return r;
}

// ------------------------------------------------------------- output

// Minimal JSON object writer: keys are fixed identifiers, never escaped.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& u64(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c >= 0x20) ? c : ' ';
    }
    return raw(k, q + "\"");
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& v) {
    s_ += s_.empty() ? "{\"" : ",\"";
    s_ += k;
    s_ += "\":";
    s_ += v;
    return *this;
  }
  std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

double per(double num, std::uint64_t den) { return num / static_cast<double>(std::max<std::uint64_t>(den, 1)); }

std::string setup_json(const Trial& tr, const SetupResult& s, bool warmup) {
  const auto keys = tr.in.prefill.size();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a) - static_cast<double>(b);
  };
  Json j;
  j.num("setup_s", s.setup_s)
      .num("heap_bytes_per_key", per(delta(s.heap_setup, s.heap_before), keys))
      .num("heap_end_bytes_per_key", per(delta(s.heap_end, s.heap_before), keys))
      .num("heap_growth_bytes_per_update", per(delta(s.heap_end, s.heap_setup), s.passes[0].updates))
      .boolean("warmup", warmup);
  return j.done();
}

std::string pass_json(const PassResult& r, bool warmup) {
  Json j;
  j.num("throughput_mops", r.ops / r.wall_s / 1e6)
      .num("cpu_ns_per_op", r.cpu_s * 1e9 / static_cast<double>(r.ops))
      .num("latency_p50_us", r.all.p50)
      .num("latency_p99_us", r.all.p99)
      .num("latency_p999_us", r.all.p999)
      .u64("latency_samples", r.all.n)
      .num("wall_s", r.wall_s)
      .u64("ops", r.ops)
      .u64("updates", r.updates);
  for (int c = 0; c < kNumCats; ++c) {
    if (r.cat[c].n == 0) continue;
    const std::string p = kCatNames[c];
    j.num(p + "_p50_us", r.cat[c].p50)
        .num(p + "_p99_us", r.cat[c].p99)
        .num(p + "_p999_us", r.cat[c].p999)
        .u64(p + "_samples", r.cat[c].n);
  }
  return j.boolean("warmup", warmup).done();
}

std::string build_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  Json b;
  b.str("compiler", compiler)
      .u64("count_steps", LLXSCX_COUNT_STEPS)
      .u64("relaxed_orders", LLXSCX_RELAXED_ORDERS)
#ifdef NDEBUG
      .boolean("ndebug", true);
#else
      .boolean("ndebug", false);
#endif
  return b.done();
}

void print_result(const Trial& tr, const std::string& setups, const std::string& passes,
                  const std::string& layers) {
  Json j;
  j.str("workload", tr.in.spec.name)
      .u64("seed", tr.opt.seed)
      .u64("threads", static_cast<std::uint64_t>(tr.pool.size()))
      .num("scale", tr.opt.scale)
      .u64("key_space", tr.in.spec.key_space)
      .u64("prefill", tr.in.prefill.size())
      .u64("ops_per_thread", tr.in.spec.ops)
      .boolean("traced", tr.opt.trace)
      .raw("build", build_json())
      .u64("attempted", tr.attempted)
      .u64("failed", tr.failed)
      .boolean("correct", tr.failed == 0)
      .u64("max_rss_bytes", tr.rss_max)
      .raw("setups", setups)
      .raw("passes", passes);
  if (!layers.empty()) j.raw("layers", layers);
  std::printf("%s\n", j.done().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------- headline trial

template <class M, class Make>
void headline(Trial& tr, Make&& make) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(tr.opt.seconds);
  std::string setups = "[", passes = "[";
  for (int s = 0; s < kMinSetups || Clock::now() < deadline; ++s) {
    const SetupResult r = run_setup<M>(tr, tr.in, make, tr.in.spec.replays, nullptr);
    if (s > 0) setups += ',';
    setups += setup_json(tr, r, s == 0);
    for (std::size_t p = 0; p < r.passes.size(); ++p) {
      if (s > 0 || p > 0) passes += ',';
      passes += pass_json(r.passes[p], s == 0 && p == 0);
    }
  }
  print_result(tr, setups + "]", passes + "]", "");
}

// ------------------------------------------------------ traced trial

void write_chrome_trace(const Trial& tr, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw TrialFailed{"cannot write " + path};
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto span = [&](const Span& s, std::size_t tid) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",\n", tr.names[s.name].c_str(), tid, static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  };
  for (const Span& s : tr.main_spans) span(s, 0);
  for (std::size_t t = 0; t < tr.op_spans.size(); ++t) {
    for (const Span& s : tr.op_spans[t]) span(s, t + 1);
  }
  for (const CounterEvent& c : tr.counters) {
    std::fprintf(f,
                 ",\n{\"name\":\"reclaim\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                 "\"args\":{\"limbo\":%llu,\"freed\":%llu}}"
                 ",\n{\"name\":\"rss_mb\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"args\":{\"rss\":%.1f}}",
                 static_cast<double>(c.t) / 1e3, static_cast<unsigned long long>(c.limbo),
                 static_cast<unsigned long long>(c.freed), static_cast<double>(c.t) / 1e3,
                 static_cast<double>(c.rss) / (1 << 20));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw TrialFailed{"cannot write " + path};
}

// One ladder rung: one setup and one pass of the ladder inputs on a fresh
// M. Returns its cost, threads × wall ÷ ops, in ns.
template <class M, class Make>
double rung(Trial& tr, const Inputs& in, const char* name, std::uint64_t parent, std::uint32_t phase,
            bool op_spans, Make&& make) {
  const PhaseTrace pt{name, parent, phase, op_spans, false};
  const PassResult p = run_setup<M>(tr, in, make, 1, &pt).passes[0];
  // Bare engines retire into the default epoch domain, and PoolManager banks
  // blocks in per-thread lists; hand both back before the next rung.
  Epoch::drain_all_for_testing();
  PoolManager::purge_thread_cache();
  tr.run([](int) { PoolManager::purge_thread_cache(); });
  return static_cast<double>(tr.pool.size()) * p.wall_s * 1e9 / static_cast<double>(p.ops);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Counted setups on the headline configuration, the guard probe, then the
// layer ladder. `Basic` is the engine template; `base` the unscaled spec.
//
// The ladder replays a quarter-size instance of the workload (key space and
// trace length ¼, same generator and seed): its leaky rung never frees a
// retired node, and at full size that leak alone would be gigabytes. It
// runs last so the leak never shares the heap with the full-size map.
template <template <class> class Basic>
void traced(Trial& tr, const Spec& base) {
  using Ebr = Basic<EbrManager>;
  using Sharded = ShardedMap<Ebr>;
  const int threads = tr.pool.size();
  const std::size_t calls = tr.in.traces[0].calls();
  const Inputs ladder = make_inputs(base, tr.opt.scale / 4, tr.opt.seed, threads);
  const std::size_t rc = ladder.traces[0].calls();
  constexpr int kRungs = 6;
  // Rungs run round-robin and report their median, so a slow spell of the
  // host lands on every rung instead of on whichever ran during it.
  constexpr int kRounds = 3;
  tr.op_spans.resize(static_cast<std::size_t>(threads));
  tr.dropped.assign(static_cast<std::size_t>(threads), 0);
  for (auto& v : tr.op_spans) v.reserve(kRungs * (rc / kSpanEvery + 1) + calls / kSpanEvery + 1);

  const std::size_t trial = tr.begin_span(std::string(tr.in.spec.name) + ".trial", 0);
  const std::uint64_t root = tr.main_spans[trial].id;

  // Counted setups: steps from every pass, op spans from the first only.
  PassResult sum;
  std::uint64_t limbo_max = 0;
  std::uint64_t first_pass_updates = 0;  // heap growth is measured over first passes
  double growth_bytes = 0;
  std::vector<double> counted_cpu_ns;
  const Sharded* live = nullptr;  // the setup's map while it exists
  tr.sample = [&](CounterEvent& ev) {
    if (live == nullptr) return;
    ev.limbo = live->reclaim_outstanding();
    live->for_each_shard([&ev](std::size_t, const Ebr&, DomainReclaimStats s) { ev.freed += s.freed; });
    limbo_max = std::max(limbo_max, ev.limbo);
  };
  const auto make = [&live] {
    auto m = std::make_unique<Sharded>();
    live = m.get();
    return m;
  };
  const auto deadline = Clock::now() + std::chrono::duration<double>(tr.opt.seconds);
  for (int s = 0; s < kMinSetups || Clock::now() < deadline; ++s) {
    const PhaseTrace pt{"counted", root, kRungs + 1, s == 0, true};
    const SetupResult r = run_setup<Sharded>(tr, tr.in, make, tr.in.spec.replays, &pt);
    live = nullptr;
    growth_bytes += static_cast<double>(r.heap_end) - static_cast<double>(r.heap_setup);
    first_pass_updates += r.passes[0].updates;
    for (const PassResult& p : r.passes) {
      counted_cpu_ns.push_back(p.cpu_s * 1e9 / static_cast<double>(p.ops));
      sum.updates += p.updates;
      sum.freed += p.freed;
      for (int c = 0; c < kNumCats; ++c) {
        sum.steps[c] += p.steps[c];
        sum.step_calls[c] += p.step_calls[c];
      }
      sum.step_ops += p.step_ops;
      sum.step_updates += p.step_updates;
    }
  }
  tr.sample = nullptr;

  // Guard probe: DomainScope + Guard enter/exit on the shards' domains.
  constexpr int kProbes = 100'000;
  double guard_ns = 0;
  {
    Sharded probe;
    std::vector<double> ns(static_cast<std::size_t>(threads));
    tr.run([&](int t) {
      const auto t0 = Clock::now();
      for (int k = 0; k < kProbes; ++k) {
        Epoch::DomainScope scope(probe.shard_domain(static_cast<std::size_t>(k) % probe.shard_count()));
        Epoch::Guard g;
      }
      ns[static_cast<std::size_t>(t)] = seconds_between(t0, Clock::now()) * 1e9 / kProbes;
    });
    for (double v : ns) guard_ns += v / threads;
  }

  std::vector<double> cost[kRungs];
  for (int round = 0; round < kRounds; ++round) {
    const bool spans = round == 0;  // op spans from the first round only
    cost[0].push_back(
        rung<LockedMap>(tr, ladder, "locked", root, 1, spans, [] { return std::make_unique<LockedMap>(); }));
    cost[1].push_back(rung<Basic<LeakyManager>>(tr, ladder, "leaky", root, 2, spans,
                                                [] { return std::make_unique<Basic<LeakyManager>>(); }));
    cost[2].push_back(rung<Ebr>(tr, ladder, "ebr", root, 3, spans, [] { return std::make_unique<Ebr>(); }));
    cost[3].push_back(rung<Basic<PoolManager>>(tr, ladder, "pool", root, 4, spans,
                                               [] { return std::make_unique<Basic<PoolManager>>(); }));
    cost[4].push_back(
        rung<Sharded>(tr, ladder, "sharded-1", root, 5, spans, [] { return std::make_unique<Sharded>(1); }));
    cost[5].push_back(
        rung<Sharded>(tr, ladder, "sharded", root, 6, spans, [] { return std::make_unique<Sharded>(); }));
  }
  const double locked = median(cost[0]), leaky = median(cost[1]), ebr = median(cost[2]),
               pool = median(cost[3]), sharded1 = median(cost[4]), sharded = median(cost[5]);
  tr.end_span(trial);

  StepCounts total;
  for (const StepCounts& s : sum.steps) total += s;
  const std::uint64_t upd = sum.step_updates;  // updates inside steps_of
  std::uint64_t spans = tr.main_spans.size(), dropped = 0;
  for (const auto& v : tr.op_spans) spans += v.size();
  for (std::uint64_t d : tr.dropped) dropped += d;
  Json l;
  l.num("service.scope_ns_per_op", sharded1 - ebr)
      .num("service.split_ns_per_op", sharded - sharded1)
      .num("reclaim.guard_ns", guard_ns)
      .num("reclaim.ebr_ns_per_op", ebr - leaky)
      .num("reclaim.pool_ns_per_op", pool - ebr)
      .u64("reclaim.limbo_max", limbo_max)
      .num("reclaim.freed_per_update", per(static_cast<double>(sum.freed), sum.updates))
      .num("reclaim.allocs_per_update", per(static_cast<double>(total.allocations), upd))
      .num("reclaim.heap_growth_bytes_per_update", per(growth_bytes, first_pass_updates))
      .num("llxscx.llx_per_update", per(static_cast<double>(total.llx_calls), upd))
      .num("llxscx.scx_per_update", per(static_cast<double>(total.scx_calls), upd))
      .num("llxscx.cas_per_update", per(static_cast<double>(total.cas), upd))
      .num("llxscx.scx_success_ratio",
           total.scx_calls == 0 ? 1.0 : 1.0 - per(static_cast<double>(total.scx_fail), total.scx_calls))
      .num("llxscx.llx_fail_per_update", per(static_cast<double>(total.llx_fail), upd))
      .num("llxscx.helps_per_update", per(static_cast<double>(total.helps), upd))
      .num("ds.reads_per_op", per(static_cast<double>(total.shared_reads), sum.step_ops))
      .num("ds.engine_ns_per_op", leaky)
      .num("baseline.locked_ns_per_op", locked)
      .num("counted_cpu_ns_per_op", median(counted_cpu_ns))
      .num("rung.locked_ns_per_op", locked)
      .num("rung.leaky_ns_per_op", leaky)
      .num("rung.ebr_ns_per_op", ebr)
      .num("rung.pool_ns_per_op", pool)
      .num("rung.sharded-1_ns_per_op", sharded1)
      .num("rung.sharded_ns_per_op", sharded)
      .u64("spans", spans)
      .u64("spans_dropped", dropped);
  for (int c = 0; c < kNumCats; ++c) {
    if (sum.step_calls[c] == 0) continue;
    l.num(std::string("ds.reads_per_") + kCatNames[c],
          per(static_cast<double>(sum.steps[c].shared_reads), sum.step_calls[c]));
  }
  if (!tr.opt.trace_out.empty()) write_chrome_trace(tr, tr.opt.trace_out);
  print_result(tr, "[]", "[]", l.done());
}

// --------------------------------------------------------------- main

template <template <class> class Basic>
void run_trial(Trial& tr, const Spec& base) {
  if (tr.opt.trace) {
    traced<Basic>(tr, base);
  } else {
    using Sharded = ShardedMap<Basic<EbrManager>>;
    headline<Sharded>(tr, [] { return std::make_unique<Sharded>(); });
  }
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "llxscx_bench: %s\n"
               "usage: llxscx_bench --workload=NAME [--seed=N] [--seconds=S] [--scale=F]\n"
               "                    [--corrupt-expectation] [--trace --trace-out=FILE]\n"
               "workloads:",
               why.c_str());
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string k = a.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
    const auto number = [&] {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0 || d > 1e15) usage("bad value in " + a);
      return d;
    };
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = static_cast<std::uint64_t>(number());
    } else if (k == "--seconds") {
      o.seconds = number();
    } else if (k == "--scale") {
      o.scale = number();
      if (o.scale <= 0 || o.scale > 1) usage("--scale must be in (0, 1]");
    } else if (k == "--corrupt-expectation") {
      o.corrupt = true;
    } else if (k == "--trace") {
      o.trace = true;
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) usage("unknown workload '" + opt.workload + "'");
  if (opt.trace && !kStepCounting) usage("--trace needs a build with LLXSCX_COUNT_STEPS=ON");
  // Keep freed memory in the process. Each setup destroys its map, and by
  // default glibc hands the freed pages back to the kernel; the next setup
  // then faults them in afresh, at a cost that follows the host's memory
  // state rather than the program. A long-lived server reuses its heap.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  // Closed loop: one client thread per core, at most 2 (the traces are per
  // thread, so the thread count is part of the workload). Two threads still
  // contend on shared nodes and help each other, and they leave the host's
  // other cores to the main thread and to whatever else runs there; four
  // threads on four shared cores measured the scheduler as much as the map.
  const int threads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
  const Inputs in = make_inputs(*spec, opt.scale, opt.seed, threads);
  // Stop a trial before it can starve the host: today's engines grow the
  // heap under churn, and a regression there should fail loudly.
  const std::uint64_t total = mem_total_bytes();
  const std::uint64_t cap = std::uint64_t{4} << 30;
  const std::uint64_t limit = total == 0 ? cap : std::min(cap, total / 2);
  try {
    Pool pool(threads);
    Trial tr(opt, in, pool, limit);
    if (spec->engine == EngineKind::kChromatic) {
      run_trial<BasicLlxScxChromatic>(tr, *spec);
    } else {
      run_trial<BasicLlxScxHashMap>(tr, *spec);
    }
    if (tr.failed != 0) {
      std::fprintf(stderr, "llxscx_bench: %s: %llu of %llu answers were wrong\n", spec->name,
                   static_cast<unsigned long long>(tr.failed), static_cast<unsigned long long>(tr.attempted));
      return 1;
    }
  } catch (const TrialFailed& f) {
    std::fprintf(stderr, "llxscx_bench: %s: trial failed: %s\n", spec->name, f.why.c_str());
    return 3;
  }
  return 0;
}
