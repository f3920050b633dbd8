#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from the checkout's sources, runs
one workload and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1 runs
one fixed round untraced (host-time ledger, exact counters) and the same
round in a gprof-instrumented build (self-time shares, call counts), checks
that both produced identical simulated results, and prints the per-layer
metrics.  Everything is built and written under .bench_build/ in the
checkout; see perfbench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"

# name -> (threads of the timed run, rounds of the ledger run).  Two
# threads: the study's TuningDriver workers, or the flash replays run side
# by side; the traced run repeats the same rounds at one thread.
WORKLOADS = {
    "scale_partition_ordering": (2, 1),
    "flash_rack_browsing": (2, 4),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_host_s": "events/s",
    "events_per_cpu_s": "events/s",
    "peak_rss_mib": "MiB",
    "wips": "interactions/s",
    "p95_ms": "ms",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(tree, extra_flags):
    """Configures (once) and builds one tree; returns the driver path."""
    out = BUILD / tree
    log = BUILD / f"build-{tree}.log"
    out.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *extra_flags])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log, "a") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-15:]
                fail(f"build of {tree} failed:\n" + "\n".join(tail))
    return out / "perfbench_driver"


def run_driver(binary, workload, seed, seconds, threads, tag, cwd,
               rounds=0, ledger=False):
    """Runs the driver once; returns its JSON document and digest text."""
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload}-{seed}-{tag}-{os.getpid()}"
    out, digest = stem.with_suffix(".json"), stem.with_suffix(".digest")
    args = [str(binary), workload, "--seed", str(seed), "--seconds",
            str(seconds), "--threads", str(threads), "--out", str(out),
            "--digest", str(digest)]
    if rounds:
        args += ["--rounds", str(rounds)]
    if ledger:
        args.append("--ledger")
    t0 = time.time_ns()
    proc = subprocess.run(args + ["--t0-ns", str(t0)], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(out.read_text())
    text = digest.read_text()
    out.unlink()
    digest.unlink()
    return result, text


def failed_checks(result):
    return [f"{c['name']} ({c['detail']})" for c in result["checks"]
            if not c["ok"]]


def sane(result):
    """Output properties any run must have, whatever the workload."""
    problems = failed_checks(result)
    for key in ("events", "attempted", "wall_s", "cpu_s", "wips", "p95_ms",
                "completions"):
        if not result[key] > 0:
            problems.append(f"{key} is {result[key]}")
    if result["failed"] > result["attempted"]:
        problems.append("more failed than attempted operations")
    return problems


def end_to_end(result):
    return {
        "setup_s": result["setup_s"],
        "events_per_host_s":
            result["round_events"] / result["median_round_wall_s"],
        "events_per_cpu_s":
            result["round_events"] / result["median_round_cpu_s"],
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "wips": result["wips"],
        "p95_ms": result["p95_ms"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    # Both trees are built on the first run so no later run pays a build.
    timed = build("timed", [])
    traced = build("gprof", ["-DPERFBENCH_GPROF=ON"])
    threads, ledger_rounds = WORKLOADS[args.workload]

    if args.trace == 0:
        result, _ = run_driver(timed, args.workload, args.seed, args.seconds,
                               threads, "timed", ROOT)
        problems = sane(result)
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(result).items()}
    else:
        # Imported here so --trace 0 needs nothing beyond this file; no
        # bytecode cache is left next to the sources.
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        import ledger

        plain, plain_digest = run_driver(
            timed, args.workload, args.seed, args.seconds, threads, "plain",
            ROOT, rounds=ledger_rounds, ledger=True)
        profile_dir = BUILD / f"gprof-run-{os.getpid()}"
        shutil.rmtree(profile_dir, ignore_errors=True)
        profile_dir.mkdir(parents=True)
        try:
            profiled, profiled_digest = run_driver(
                traced, args.workload, args.seed, args.seconds, 1, "gprof",
                profile_dir, rounds=ledger_rounds, ledger=True)
            flat = subprocess.run(
                ["gprof", "-b", "-p", str(traced),
                 str(profile_dir / "gmon.out")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(profile_dir, ignore_errors=True)
        if flat.returncode != 0:
            fail(f"gprof failed: {flat.stderr.strip()}")
        problems = sane(plain) + sane(profiled)
        if plain_digest != profiled_digest:
            problems.append(
                f"simulated results differ between the {threads}-thread "
                "untraced run and the 1-thread traced run")
        problems += ledger.exact_mismatches(plain, profiled)
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        result = plain
        metrics = ledger.per_layer(plain, profiled, flat.stdout)

    print(json.dumps({
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
