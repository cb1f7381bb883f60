#!/usr/bin/env python3
"""Build and run apds_e2e, the repository's end-to-end benchmark.

From the repository root:

  # one measured run (the command BENCHMARK.json names)
  python3 bench/e2e/run.py --workload edge_b1 --seed 1 --seconds 20 --trace 0

  # run every workload N times, alternating the order, and compare each
  # metric's spread with its BENCHMARK.json bound (exit 1 if one exceeds it)
  python3 bench/e2e/run.py --repeat 3

  # the ctest checks of bench/e2e/CMakeLists.txt
  python3 bench/e2e/run.py --smoke --bin build-e2e/apds_e2e
  python3 bench/e2e/run.py --corrupt-check --bin build-e2e/apds_e2e

The first run configures and builds build-e2e/ (Release; the libraries with
the repository's own flags). Build output goes to stderr, so the last line
of stdout is always the benchmark's JSON result.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"


def build():
    """Configure once, then bring apds_e2e up to date; returns its path.
    The compiler's temporary files go under the build directory, so the
    build writes nothing outside the checkout."""
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "apds_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return BUILD / "apds_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return p.stdout.strip() or "unknown"


def command(binary, workload, seed, seconds, trace, *extra):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", str(BUILD), "--git-sha", git_sha(), *extra]


def run_json(cmd):
    """Run apds_e2e; returns (exit code, parsed last stdout line or None)."""
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def smoke(binary):
    """Every workload, one short round: all end-to-end metrics, positive and
    finite, and no failed request; one traced run reports every per-layer
    metric."""
    spec = benchmark_spec()
    for trace, key, workloads in (
            (0, "end_to_end", [w["name"] for w in spec["workloads"]]),
            (1, "per_layer", ["batch64"])):
        want = {m["name"] for m in spec[key]}
        for w in workloads:
            code, res = run_json(command(binary, w, 1, 1, trace, "--smoke"))
            if res is None:
                fail(f"{w} trace {trace}: no JSON result (exit {code})")
            got = set(res["metrics"])
            if got != want:
                fail(f"{w} trace {trace}: missing {sorted(want - got)}, "
                     f"unexpected {sorted(got - want)}")
            if code != 0 or not res["correct"] or res["failed"] != 0:
                fail(f"{w} trace {trace}: exit {code}, correct "
                     f"{res['correct']}, failed {res['failed']}")
            if res["attempted"] < 1:
                fail(f"{w}: no request attempted")
            for name, m in res["metrics"].items():
                v = m["value"]
                if trace == 0 and not (isinstance(v, (int, float))
                                       and math.isfinite(v) and v > 0):
                    fail(f"{w}: {name} = {v}")
            print(f"ok {w} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} requests, 0 failed")


def corrupt_check(binary):
    """Flipping one sampled answer must be caught by every workload's check:
    failed > 0, correct false, exit 1."""
    for w in (w["name"] for w in benchmark_spec()["workloads"]):
        code, res = run_json(command(binary, w, 1, 1, 0, "--smoke",
                                     "--corrupt-one"))
        if res is None or code != 1 or res["correct"] or res["failed"] < 1:
            fail(f"{w}: corrupted answer not caught (exit {code}, {res})")
        print(f"ok {w}: corrupted answer caught, failed {res['failed']} of "
              f"{res['attempted']}")


def repeat(binary, n, seconds, seed):
    """Run each workload n times, alternating order; report each metric's
    median, quartiles and spreads next to its bound. Fails when a max-min
    spread exceeds the bound; setup_s is reported but not gated, as its
    bound governs only its median."""
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    runs = {w: [] for w in workloads}
    for i in range(n):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            code, res = run_json(command(binary, w, seed + i, seconds, 0))
            if res is None or code != 0 or not res["correct"]:
                fail(f"{w} seed {seed + i}: exit {code}, {res}")
            runs[w].append(res["metrics"])
            print(f"run {i + 1}/{n} {w} seed {seed + i}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                flush=True)
    worst_ok = True
    print(f"\n{'workload':12} {'metric':11} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for w in workloads:
        for name, bound in bounds.items():
            vals = [r[name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (med,) * 3
            iqr = (q3 - q1) / med
            spread = (max(vals) - min(vals)) / med
            ok = spread <= bound or name == "setup_s"
            worst_ok = worst_ok and ok
            print(f"{w:12} {name:11} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{iqr:8.2%} {spread:9.2%} {bound:6.0%}"
                  + ("" if ok else "  EXCEEDS BOUND"))
    sys.exit(0 if worst_ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--repeat", type=int, metavar="N")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-check", action="store_true")
    ap.add_argument("--bin", help="prebuilt apds_e2e (skips the build)")
    args = ap.parse_args()

    try:
        binary = Path(args.bin) if args.bin else build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        smoke(binary)
    elif args.corrupt_check:
        corrupt_check(binary)
    elif args.repeat:
        repeat(binary, args.repeat, args.seconds, args.seed)
    else:
        if not args.workload:
            ap.error("--workload is required")
        seconds = args.seconds or benchmark_spec()["run_seconds"]
        return subprocess.run(command(binary, args.workload, args.seed,
                                      seconds, args.trace)).returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
