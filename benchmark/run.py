#!/usr/bin/env python3
"""Runner of the serving benchmark (benchmark/README.md). Standard library only.

  python3 benchmark/run.py [--out=FILE] [--seed=N] [--seconds=S]
      Build the uninstrumented configuration and run every workload 3 times,
      one process per trial, trials interleaved across workloads.
      Prints each metric as `<workload> <metric> <median> <unit> [min..max]
      n=<trials>`.
  python3 benchmark/run.py --traced [--out=FILE] [--seed=N] [--seconds=S]
      Also build with LLXSCX_COUNT_STEPS=ON and run one traced trial per
      workload: the layer ladder, step counts and spans. Prints every
      per-layer metric and writes benchmark/out/trace-<workload>.json.
  python3 benchmark/run.py compare BASE.json CHANGE.json
      Compare two --out files metric by metric; exit 1 if any end-to-end
      metric got worse by more than its bound or any answer was wrong.
  python3 benchmark/run.py selftest
      Every workload at 1/100 size must pass its checks, and must fail them
      once one expected answer is flipped.
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One trial of one workload; the last line of stdout is one JSON object
      with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
      metrics, or with --trace 1 the per-layer ones).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / "benchmark" / "out"
DEV_SEED = 20130722  # develop on this seed; re-check any claim on another
TRIALS = 3
BENCH_TIMEOUT_S = 170
CONFIGS = {"release": "OFF", "traced": "ON"}  # -> LLXSCX_COUNT_STEPS
# Printed and stored by full runs, never gated (README: "Informational").
INFORMATIONAL = [("throughput_mops", "Mop/s"), ("latency_p99_us", "us"),
                 ("latency_p999_us", "us"), ("get_p50_us", "us"), ("get_p99_us", "us"),
                 ("update_p50_us", "us"), ("update_p99_us", "us"), ("scan_p50_us", "us"),
                 ("scan_p99_us", "us"), ("batch_p50_us", "us"), ("batch_p99_us", "us"),
                 ("heap_growth_bytes_per_update", "B")]


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build(config):
    """Configure (once) and build one configuration of llxscx_bench."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"program sources not found under {ROOT}; nothing to benchmark")
    bdir = BUILD / config
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries in the tree
    log = BUILD / f"{config}.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DLLXSCX_COUNT_STEPS={CONFIGS[config]}"])
    steps.append(["cmake", "--build", str(bdir), "-j", "2"])
    with open(log, "w") as lf:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT, env=env)
            if r.returncode != 0:
                lf.flush()
                tail = log.read_text().splitlines()[-20:]
                die(f"build of {config} failed:\n" + "\n".join(tail))


def run_bench(config, args):
    """Runs llxscx_bench; returns (exit code, parsed last-line JSON or None)."""
    exe = BUILD / config / "llxscx_bench"
    try:
        r = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE, text=True,
                           timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"llxscx_bench timed out after {BENCH_TIMEOUT_S} s: {' '.join(args)}", 1)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return r.returncode, None


# ------------------------------------------------------------------ stats

def spread(values):
    return statistics.median(values), min(values), max(values)


def fmt(v):
    return f"{v:.6g}"


def trial_values(result):
    """Per-setup and per-pass values -> {metric: [values]}, warm-up left out."""
    out = {}
    for record in result["setups"] + result["passes"]:
        if record["warmup"]:
            continue
        for k, v in record.items():
            if k != "warmup":
                out.setdefault(k, []).append(v)
    return out


def line(workload, name, values, unit):
    med, lo, hi = spread(values)
    print(f"{workload} {name} {fmt(med)} {unit} [{fmt(lo)}..{fmt(hi)}] n={len(values)}")


# ----------------------------------------------------------- trace check

def check_chrome_trace(path):
    """Every span's parent must be another span (or 0 for the root)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    ids = {e["args"]["id"] for e in spans}
    if len(ids) != len(spans):
        return f"{path}: duplicate span ids"
    orphans = [e for e in spans if e["args"]["parent"] not in ids and e["args"]["parent"] != 0]
    if orphans:
        return f"{path}: {len(orphans)} spans with unresolved parents"
    roots = [e for e in spans if e["args"]["parent"] == 0]
    if len(roots) != 1 or not roots[0]["name"].endswith(".trial"):
        return f"{path}: expected one <workload>.trial root span"
    return None


# --------------------------------------------------------------- one trial

def one_trial(workload, seed, seconds, traced):
    """One trial. Returns (metrics {name: median}, values {name: [values]},
    attempted, failed, exit code, raw results). A traced trial splits its
    seconds between the headline build and the traced one, so it takes about
    as long as an untraced trial."""
    if traced:
        seconds /= 2
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    rc, res = run_bench("release", args)
    if res is None:
        die(f"{workload}: llxscx_bench exited {rc} without a result", 1)
    attempted, failed = res["attempted"], res["failed"]
    values = trial_values(res)
    metrics = {k: statistics.median(v) for k, v in values.items()}
    raw = {"headline": res}
    if not traced:
        return metrics, values, attempted, failed, rc, raw
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload}.json"
    rc2, tres = run_bench("traced", args + ["--trace", f"--trace-out={trace_file}"])
    if tres is None:
        die(f"{workload}: traced llxscx_bench exited {rc2} without a result", 1)
    problem = check_chrome_trace(trace_file)
    if problem:
        die(problem, 1)
    layers = dict(tres["layers"])
    layers["trace.overhead_frac"] = 1.0 - metrics["cpu_ns_per_op"] / layers["counted_cpu_ns_per_op"]
    raw["traced"] = tres
    return (layers, {k: [v] for k, v in layers.items()}, attempted + tres["attempted"],
            failed + tres["failed"], rc or rc2, raw)


def single(a, spec):
    """One trial of one workload, with the result as the last line."""
    names = {w["name"] for w in spec["workloads"]}
    if a.workload not in names:
        die(f"unknown workload {a.workload!r}; one of {sorted(names)}")
    build("release")
    build("traced")  # both up front, so only the first run pays for builds
    traced = a.trace == 1
    metrics, values, attempted, failed, rc, _ = one_trial(a.workload, a.seed, a.seconds, traced)
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] not in metrics:
            die(f"{a.workload}: llxscx_bench did not report {m['name']}", 1)
        line(a.workload, m["name"], values[m["name"]], m["unit"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and rc == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


# ---------------------------------------------------------------- full run

def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def envelope(seed, trials, seconds, headline, traced):
    cpu = next((l.split(":", 1)[1].strip() for l in read_text("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), None)
    mem = next((l.split()[1] for l in read_text("/proc/meminfo").splitlines()
                if l.startswith("MemTotal")), None)
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        g = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        s = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                           capture_output=True, text=True)
        if g.returncode == 0:
            commit, dirty = g.stdout.strip(), bool(s.stdout.strip())
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu,
                 "mem_total_kb": int(mem) if mem else None},
        "build": dict(headline["build"], build_type="Release"),
        "git": {"commit": commit, "dirty": dirty},
        "seed": seed, "threads": headline["threads"], "trials": trials,
        "seconds": seconds, "traced": traced,
    }


def full_run(a, spec):
    build("release")
    if a.traced:
        build("traced")
    trials = 1 if a.traced else TRIALS
    names = [w["name"] for w in spec["workloads"]]
    acc = {n: {"values": {}, "raw": [], "attempted": 0, "failed": 0} for n in names}
    bad = False
    # Trial-major order: a slow spell of the host then lands on one trial of
    # every workload instead of on every trial of one.
    for _ in range(trials):
        for name in names:
            metrics, _, att, fail, rc, raw = one_trial(name, a.seed, a.seconds, a.traced)
            st = acc[name]
            for k, v in metrics.items():
                st["values"].setdefault(k, []).append(v)
            st["raw"].append(raw)
            st["attempted"] += att
            st["failed"] += fail
            bad |= rc != 0 or fail != 0
    results = {}
    for name in names:
        st = acc[name]
        vals = st["values"]
        if a.traced:
            shown = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            shown += [(k, "ns") for k in sorted(vals) if k.startswith("rung.")]
        else:
            shown = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            shown += [(k, u) for k, u in INFORMATIONAL if k in vals]
        for k, unit in shown:
            line(name, k, vals[k], unit)
        failed_frac = st["failed"] / max(st["attempted"], 1)
        print(f"{name} failed_frac {failed_frac:.6g} ratio n={trials}")
        results[name] = {
            "metrics": {k: dict(zip(("median", "min", "max"), spread(v)), trials=v)
                        for k, v in vals.items()},
            "attempted": st["attempted"], "failed": st["failed"], "failed_frac": failed_frac,
            "raw": st["raw"],
        }
    env = envelope(a.seed, trials, a.seconds, acc[names[0]]["raw"][0]["headline"], a.traced)
    if a.out:
        Path(a.out).parent.mkdir(parents=True, exist_ok=True)
        with open(a.out, "w") as f:
            json.dump({"envelope": env, "results": results}, f, indent=1)
        print(f"wrote {a.out}")
    return 1 if bad else 0


# ----------------------------------------------------------------- compare

def compare(base_path, change_path, spec):
    with open(base_path) as f:
        base = json.load(f)["results"]
    with open(change_path) as f:
        change = json.load(f)["results"]
    worse = False
    print(f"{'workload':<12} {'metric':<24} {'base':>12} {'change':>12} {'delta':>8}  "
          f"{'base range':<24} {'change range':<24}")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in change:
            print(f"{name:<12} missing from {'base' if name not in base else 'change'}")
            worse = True
            continue
        for m in spec["end_to_end"]:
            b = base[name]["metrics"].get(m["name"])
            c = change[name]["metrics"].get(m["name"])
            if b is None or c is None:
                print(f"{name:<12} {m['name']:<24} missing")
                worse = True
                continue
            delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            regressed = delta > m["bound"] if m["better"] == "lower" else delta < -m["bound"]
            worse |= regressed
            print(f"{name:<12} {m['name']:<24} {fmt(b['median']):>12} {fmt(c['median']):>12} "
                  f"{delta:>+8.1%}  {'[' + fmt(b['min']) + '..' + fmt(b['max']) + ']':<24} "
                  f"{'[' + fmt(c['min']) + '..' + fmt(c['max']) + ']':<24}"
                  f"{'  worse' if regressed else ''}")
        if change[name]["failed_frac"] > base[name]["failed_frac"]:
            print(f"{name:<12} failed_frac rose: {base[name]['failed_frac']:.3g} -> "
                  f"{change[name]['failed_frac']:.3g}  worse")
            worse = True
    return 1 if worse else 0


# ---------------------------------------------------------------- selftest

def selftest(spec):
    build("release")
    ok = True
    for w in spec["workloads"]:
        base = [f"--workload={w['name']}", f"--seed={DEV_SEED}", "--scale=0.01", "--seconds=0"]
        rc, res = run_bench("release", base)
        good = rc == 0 and res is not None and res["failed"] == 0 and res["attempted"] > 0
        rc2, res2 = run_bench("release", base + ["--corrupt-expectation"])
        caught = rc2 != 0 and res2 is not None and res2["failed"] > 0
        print(f"{w['name']:<12} clean: {'ok' if good else 'FAIL'} (exit {rc})  "
              f"flipped expectation: {'caught' if caught else 'MISSED'} (exit {rc2}, "
              f"failed {res2['failed'] if res2 else '?'})")
        ok &= good and caught
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("cmd", nargs="*", help="compare BASE CHANGE | selftest")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    a = p.parse_args()
    if a.cmd[:1] == ["compare"] and len(a.cmd) == 3:
        return compare(a.cmd[1], a.cmd[2], spec)
    if a.cmd == ["selftest"]:
        return selftest(spec)
    if a.cmd:
        p.error(f"unknown command {' '.join(a.cmd)}")
    if a.workload:
        return single(a, spec)
    return full_run(a, spec)


if __name__ == "__main__":
    sys.exit(main())
