#!/usr/bin/env python3
"""Sampling profile of one serving-benchmark workload, without perf.

  python3 tools/profile.py [--workload W] [--seed N] [--seconds S] [--top N]

1. Builds the benchmark into .bench_build/profile in benchmark/run.py's
   release configuration plus -g, and checks that -g left the binary's
   .text byte-identical to .bench_build/release's: the profile is then of
   the code the headline metrics time.
2. Runs one trial of the workload with tools/sampler.c preloaded, which
   samples each thread's program counter on its CPU-time clock (so blocked
   threads take no samples).
3. Symbolizes the samples with addr2line -a -f -i -C and prints three
   tables, each row a sample count and its share of the samples taken in
   the benchmark binary:
     functions  the out-of-line function holding the PC;
     inlined    the innermost function at the PC, inlined or not;
     lines      the innermost source line at the PC.
   Samples outside the binary (libc, the vdso, ...) are listed apart, per
   mapping, with their share of all samples.

The samples and maps stay in .bench_build/profile/pcs-<workload>.txt.
Standard library only.
"""
import argparse
import bisect
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROFILE = BUILD / "profile"
NAME_WIDTH = 110  # demangled template names run to kilobytes


def load_runner():
    """benchmark/run.py as a module: its release configuration and build.
    No bytecode cache is written, so benchmark/ gains no file."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "benchmark" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_logged(cmd, log, env=None):
    with open(log, "a") as lf:
        r = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT, env=env)
    if r.returncode != 0:
        tail = Path(log).read_text().splitlines()[-20:]
        sys.exit(f"profile.py: {' '.join(map(str, cmd))} failed:\n" + "\n".join(tail))


def build(runner):
    """Builds the release and profile binaries and the sampler; returns the
    profile binary and the sampler library."""
    runner.build("release")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = BUILD / "profile.log"
    log.write_text("")
    if not (PROFILE / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT / "benchmark", "-B", PROFILE,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DLLXSCX_COUNT_STEPS={runner.CONFIGS['release']}",
                    "-DCMAKE_CXX_FLAGS=-g"], log, env)
    run_logged(["cmake", "--build", PROFILE, "-j", "2"], log, env)
    sampler = PROFILE / "sampler.so"
    run_logged(["cc", "-O2", "-shared", "-fPIC", "-o", sampler,
                ROOT / "tools" / "sampler.c"], log, env)
    return PROFILE / "llxscx_bench", sampler


def text_section(exe):
    out = PROFILE / f"{exe.parent.name}.text"
    subprocess.run(["objcopy", "-O", "binary", "--only-section=.text", exe, out], check=True)
    return out.read_bytes()


def read_samples(path):
    """Parses sampler.c's output: ([(start, end, offset, path)], Counter of
    PCs, dropped)."""
    maps, pcs, dropped, section = [], Counter(), 0, None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
            elif line.startswith("# pcs"):
                section = "pcs"
                dropped = int(line.split()[3])
            elif section == "maps":
                parts = line.split(maxsplit=5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                name = parts[5].strip() if len(parts) > 5 else "[anonymous]"
                maps.append((lo, hi, int(parts[2], 16), name))
            elif line.strip():
                pc = int(line, 16)
                if pc != 0:  # 0: a sample whose store the exit raced
                    pcs[pc] += 1
    maps.sort()
    return maps, pcs, dropped


def mapping_of(maps, pc):
    i = bisect.bisect_right(maps, (pc, float("inf"))) - 1
    if i >= 0 and maps[i][0] <= pc < maps[i][1]:
        return maps[i]
    return None


def symbolize(exe, addrs):
    """{addr: [(function, file:line), ...]}, innermost frame first."""
    r = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                       input="".join(f"{a:#x}\n" for a in addrs),
                       stdout=subprocess.PIPE, text=True, check=True)
    frames, cur = {}, None
    lines = r.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            frames[cur] = []
            i += 1
            continue
        fn, loc = lines[i], lines[i + 1] if i + 1 < len(lines) else "??:0"
        loc = loc.split(" (discriminator")[0]
        if loc.startswith(str(ROOT) + "/"):
            loc = loc[len(str(ROOT)) + 1:]
        frames[cur].append((fn, loc))
        i += 2
    return frames


def table(title, counts, total, top):
    print(f"-- {title}")
    for name, n in counts.most_common(top):
        if len(name) > NAME_WIDTH:
            name = name[:NAME_WIDTH - 3] + "..."
        print(f"{100.0 * n / total:6.1f}% {n:7d}  {name}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="hash-batch")
    p.add_argument("--seed", type=int, default=20130722)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--top", type=int, default=25, help="rows per table")
    a = p.parse_args()

    runner = load_runner()
    exe, sampler = build(runner)
    if text_section(BUILD / "release" / "llxscx_bench") != text_section(exe):
        sys.exit("profile.py: -g changed the benchmark's .text; a profile of "
                 f"{exe} would not be of the headline code")

    PROFILE.mkdir(parents=True, exist_ok=True)
    pcs_file = PROFILE / f"pcs-{a.workload}.txt"
    env = dict(os.environ, LD_PRELOAD=str(sampler), SAMPLER_OUT=str(pcs_file))
    r = subprocess.run([exe, f"--workload={a.workload}", f"--seed={a.seed}",
                        f"--seconds={a.seconds}"], env=env, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"profile.py: llxscx_bench exited {r.returncode}:\n{r.stdout[-2000:]}")

    maps, pcs, dropped = read_samples(pcs_file)
    exe_path = str(exe.resolve())
    with open(exe, "rb") as f:
        pie = int.from_bytes(f.read(18)[16:18], "little") == 3  # ET_DYN
    base = min((lo - off for lo, _, off, name in maps if name == exe_path), default=0)
    inside, outside = Counter(), Counter()
    for pc, n in pcs.items():
        m = mapping_of(maps, pc)
        if m is not None and m[3] == exe_path:
            inside[pc - base if pie else pc] += n
        else:
            outside[m[3] if m else "[unmapped]"] += n
    total = sum(pcs.values())
    in_total = sum(inside.values())
    if in_total == 0:
        sys.exit("profile.py: no samples landed in the benchmark binary")

    funcs, inlined, srclines = Counter(), Counter(), Counter()
    frames = symbolize(exe, sorted(inside))
    for addr, n in inside.items():
        fr = frames.get(addr) or [("??", "??:0")]
        funcs[fr[-1][0]] += n
        inlined[fr[0][0]] += n
        srclines[f"{fr[0][1]}  {fr[0][0]}"] += n

    print(f"{a.workload}: {total} samples ({dropped} dropped), {in_total} in "
          f"llxscx_bench ({100.0 * in_total / total:.1f}%); .text identical to "
          "the release build's")
    table("functions (out-of-line symbol at the PC), share of in-binary samples",
          funcs, in_total, a.top)
    table("inlined (innermost function at the PC), share of in-binary samples",
          inlined, in_total, a.top)
    table("lines (innermost source line at the PC), share of in-binary samples",
          srclines, in_total, a.top)
    table("outside the binary, share of all samples", outside, total, a.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
