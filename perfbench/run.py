#!/usr/bin/env python3
"""perfbench: the simulator's benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

prints report lines and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Other modes:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--held-out K]
        every workload untraced and traced: all end-to-end metrics by
        name and unit, and traced minus untraced wall_s per workload;
        with --held-out, every workload again at seed K, checking that
        error_rate is 0 and misp_ki differs from seed N
    python3 perfbench/run.py --steadiness N --workload W [--seed K]
        N runs at seeds K..K+N-1: median, quartiles, min, max and the
        quartile spread of each end-to-end metric
    python3 perfbench/run.py --self-test
        build and run the tests of the harness's own helpers

The benchmark builds the simulator from the checkout's sources into
.bench_build/perfbench on first use. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_matrix", "tagged_matrix", "shared_scenarios",
             "service_mix"]
ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
WORK_DIR = BUILD_DIR / "work"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(command):
    """Run a build step with its output on stderr."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(command)}", 1)


def build(target="perfbench_run"):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the simulator sources (src/) are missing; run from a full "
             "checkout")
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", target,
               "-j", jobs])
    return ROOT / BUILD_DIR / target


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """One workload run; returns (exit code, output lines, result)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(WORK_DIR)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=3 * seconds + 150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if echo:
        for line in lines:
            print(line)
    return proc.returncode, lines, result


def extra_metrics(lines):
    """name -> (value, unit) of every 'metric' report line."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = (float(parts[2]), parts[3])
    return found


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def mode_single(args):
    binary = build()
    code, _, result = run_once(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    if code != 0 or result is None:
        sys.exit(code or 1)


def report_lines(lines):
    """The metric and note lines of a run, without the result line."""
    return [line for line in lines
            if line.startswith("metric ") or line.startswith("# ")]


def mode_all(args):
    binary = build()
    ok = True
    overhead = {}
    misp = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            kind = "traced" if trace else "untraced"
            print(f"== {workload}, {kind} (seed {args.seed}, "
                  f"{args.seconds} s)")
            code, lines, result = run_once(binary, workload, args.seed,
                                           args.seconds, trace,
                                           echo=False)
            ok = (ok and code == 0 and result is not None and
                  result["correct"])
            for line in report_lines(lines):
                print(f"  {line}")
            metrics = extra_metrics(lines)
            missing = (float("nan"), "")
            if trace:
                overhead[workload] = (
                    metrics.get("traced_wall_s", missing)[0],
                    untraced_wall,
                    metrics.get("untraced_wall_s", (None,))[0])
            else:
                untraced_wall = metrics.get("wall_s", missing)[0]
                misp[workload] = metrics.get("misp_ki", missing)[0]
    print("== tracing overhead: traced minus untraced wall_s")
    for workload, (traced, untraced, same_process) in overhead.items():
        line = (f"  {workload:18s} traced {traced:.4f} s - untraced "
                f"{untraced:.4f} s = {traced - untraced:+.4f} s")
        if same_process is not None:
            line += (f"; within the traced run {traced:.4f} - "
                     f"{same_process:.4f} = {traced - same_process:+.4f} s")
        print(line)
    if args.held_out is not None:
        print(f"== held-out seed {args.held_out}")
        for workload in WORKLOADS:
            code, lines, result = run_once(binary, workload,
                                           args.held_out, args.seconds, 0,
                                           echo=False)
            metrics = extra_metrics(lines)
            held = metrics.get("misp_ki", (float("nan"), ""))[0]
            good = (code == 0 and result is not None and
                    result["failed"] == 0 and held != misp[workload])
            ok = ok and good
            error_rate = metrics.get("error_rate", (float("nan"), ""))[0]
            print(f"  {workload:18s} exit {code}, {len(metrics)} metrics, "
                  f"error_rate {error_rate:.4f}, misp_ki "
                  f"{held:.4f} vs {misp[workload]:.4f} at seed "
                  f"{args.seed}: {'ok' if good else 'FAILED'}")
    if not ok:
        fail("a correctness check failed", 1)


def mode_steadiness(args):
    binary = build()
    values = {}
    units = {}
    for k in range(args.steadiness):
        seed = args.seed + k
        code, lines, result = run_once(binary, args.workload, seed,
                                       args.seconds, args.trace,
                                       echo=False)
        if code != 0 or result is None:
            fail(f"run at seed {seed} failed (exit {code})", 1)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={e['value']:.4f}" for n, e in result["metrics"].items()),
            flush=True)
    print(f"== {args.workload}: {args.steadiness} runs of "
          f"{args.seconds} s")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>8s}")
    for name, series in values.items():
        q1, q2, q3, rel = spread(series)
        print(f"  {name:24s} {q2:12.5f} {q1:12.5f} {q3:12.5f} "
              f"{min(series):12.5f} {max(series):12.5f} {rel:8.2%} "
              f"{units[name]}")


def mode_self_test(_args):
    binary = build("perfbench_tests")
    sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--held-out", type=int, default=None,
                        help="with --all: run again at this seed and "
                             "check error_rate and misp_ki")
    parser.add_argument("--steadiness", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.self_test:
        mode_self_test(args)
    elif args.all:
        mode_all(args)
    elif args.steadiness:
        if args.workload is None or args.steadiness < 2:
            fail("--steadiness N needs N >= 2 and --workload")
        mode_steadiness(args)
    elif args.workload is None:
        fail("--workload is required (or --all / --steadiness / "
             "--self-test)")
    else:
        mode_single(args)


if __name__ == "__main__":
    main()
