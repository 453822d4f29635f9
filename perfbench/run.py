#!/usr/bin/env python3
"""Runs one benchmark workload of the autolock library and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve-c880 --seed 1 --seconds 30 --trace 0

The script builds perfbench/driver.cpp against the library sources, and the
reference kernel perfbench/reference.cpp on its own (into $CARGO_TARGET_DIR,
default .bench_build), then:

  1. probes the host (calibrated parallel burn) before and after the run;
  2. spawns the driver SETUP_SPAWNS times in set-up mode and takes the median
     time from process start to the measured phase (setup_s);
  3. spawns the driver once in run mode: jobs back to back for --seconds,
     each between two passes of a fixed reference kernel (cpu_ref), output
     checks, and with --trace 1 one traced job for the per-layer split;
  4. compares outputs against perfbench/expected.json (and, for
     campaign-iscas at seed 1, against the committed BENCH_bench_campaign.json).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics. The exit code is 0 only when
every output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evolve-c880", "campaign-iscas")
SETUP_SPAWNS = 9
# The run must end within 180 s of the start (build excluded).
RUN_DEADLINE_S = 170.0
# A probe below this parallel efficiency marks the host as starved.
STARVED_EFFICIENCY = 0.75
# Per-workload unit of work per wall second, for the summary line.
UNIT_NAMES = {
    "evolve-c880": "gens_per_s",
    "campaign-iscas": "cells_per_s",
}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the driver and the reference kernel; returns
    (driver binary, build root)."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no autolock sources next to perfbench/ in {ROOT}")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for target in ("perfbench_driver", "perfbench_reference"):
        steps.append(["cmake", "--build", str(build_dir), "--target", target,
                      "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fail(f"build failed, see {log_path}", 1)
    return build_dir / "perfbench_driver", build_root


def driver(binary, args, timeout):
    """Runs the driver; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([str(binary), *args], capture_output=True, text=True,
                          timeout=max(timeout, 1.0), check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def cells_digest(cells):
    text = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_checks(workload, seed, outputs):
    """Compares the run's outputs with the recorded ones; returns failures."""
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected.get(workload, {}).get(str(seed))
    checks = []
    if workload == "campaign-iscas":
        cells = json.loads(Path(outputs["cells_json"]).read_text())["cells"]
        if recorded is not None:
            checks.append((cells_digest(cells) == recorded["cells_sha256"],
                           f"campaign cells differ from the seed-{seed} record"))
        committed = ROOT / "BENCH_bench_campaign.json"
        if seed == 1 and committed.is_file():
            baseline = json.loads(committed.read_text())
            circuits = {cell["circuit"] for cell in cells}
            same_axes = [cell for cell in baseline["cells"]
                         if cell["circuit"] in circuits]
            checks.append((cells == same_axes, "campaign cells differ from "
                           "the committed BENCH_bench_campaign.json"))
    elif recorded is not None:
        for key, value in recorded.items():
            checks.append((outputs.get(key) == value,
                           f"{key} {outputs.get(key)} != recorded {value}"))
    return [message for ok, message in checks if not ok], len(checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, build_root = build()
    start = time.monotonic()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = build_root / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out_dir)]

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    def probe():
        code, host = driver(binary, ["--mode", "probe"], remaining())
        if code != 0 or host is None:
            fail("host probe failed", 1)
        return host

    host_before = probe()
    setups = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic_ns()
        code, setup = driver(binary, ["--mode", "setup", "--t0-ns", str(t0),
                                      *common], remaining())
        if code != 0 or setup is None:
            fail("set-up run failed", 1)
        setups.append(setup["setup_s"])
    code, run = driver(binary, ["--mode", "run", "--seconds", str(args.seconds),
                                "--trace", str(args.trace), *common],
                       remaining())
    if run is None:
        fail(f"run failed (exit {code})", 1)
    host_after = probe()

    failures = list(run["failures"])
    golden_failures, golden_attempted = golden_checks(
        args.workload, args.seed, run["outputs"])
    failures += golden_failures
    attempted = run["attempted"] + golden_attempted
    failed = run["failed"] + len(golden_failures)
    failed_frac = failed / attempted

    if args.trace == 0:
        values = dict(run["e2e"], setup_s=statistics.median(setups))
        names = [m["name"] for m in benchmark["end_to_end"]]
    else:
        values = dict(run["layers"])
        values["checks.failed_frac"] = failed_frac
        names = [m["name"] for m in benchmark["per_layer"]]
    if sorted(values) != sorted(names):
        fail(f"driver metrics {sorted(set(values) ^ set(names))} do not "
             "match BENCHMARK.json", 1)
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}

    efficiency = min(host_before["parallel_efficiency"],
                     host_after["parallel_efficiency"])
    host = {
        "nproc": int(host_before["nproc"]),
        "parallel_efficiency_before": host_before["parallel_efficiency"],
        "parallel_efficiency_after": host_after["parallel_efficiency"],
        "burn_ms_before": host_before["burn_ms"],
        "burn_ms_after": host_after["burn_ms"],
        "cpu_per_wall": float(run["outputs"]["cpu_per_wall"]),
        "starved": efficiency < STARVED_EFFICIENCY,
        "job_seconds": [float(t) for t in run["outputs"]["job_seconds"].split()],
        "job_cpu_seconds": [
            float(t) for t in run["outputs"]["job_cpu_seconds"].split()],
        "ref_cpu_seconds": [
            float(t) for t in run["outputs"]["ref_cpu_seconds"].split()],
        "setup_spawns": setups,
    }
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "outputs": run["outputs"],
              "failures": failures, "metrics": metrics}
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for message in failures:
        print(f"check failed: {message}")
    print("host: " + json.dumps(host))
    shown = names if args.trace == 0 else [
        name for name in names if name.startswith(("self.", "trace."))]
    summary = [f"{name}={metrics[name]['value']:.6g} {metrics[name]['unit']}"
               for name in shown]
    summary.append(f"{UNIT_NAMES[args.workload]}="
                   f"{float(run['outputs']['units_per_s']):.6g} 1/s")
    summary.append(f"failed_frac={failed_frac:.6g} ratio")
    print(f"{args.workload} seed {args.seed}: " + ", ".join(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
