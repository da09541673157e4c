#!/usr/bin/env python3
"""Outside-in benchmark of netcorr: one command for every workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test        # the benchmark's own tests

Run from the repository root. A run builds the benchmark binary and the
``netcorr-serve`` daemon from source (``cargo build --release
--offline``; the target directory is ``$CARGO_TARGET_DIR``, default
``.bench_build``), runs the workload, checks its result against
``BENCHMARK.json`` (the one declaration of the workloads and metrics),
prints every metric with its unit and the host
record, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics. It exits non-zero, without a result line, when
the build or the workload cannot run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULT_PREFIX = "E2EBENCH "
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.normpath(os.path.join(root, target))


def build(root):
    """Builds the benchmark and the daemon; returns the binaries' dir."""
    target = target_dir(root)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "-p", "netcorr-e2ebench", "-p", "netcorr-serve", "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build: {e}")
    if built.returncode != 0:
        fail("the build failed")
    return os.path.join(target, "release")


def load_benchmark(root):
    """The declaration in ``BENCHMARK.json`` at the repository root."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def validate(result, declared, trace):
    """The declared metrics of this mode, from the binary's result.

    An end-to-end metric must be present and finite. A per-layer metric
    the workload's path does not touch is reported as 0."""
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    emitted = result["metrics"]
    undeclared = sorted(set(emitted) - {m["name"] for m in wanted})
    if undeclared:
        fail(f"undeclared metrics: {undeclared}")
    metrics, absent = {}, []
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} is missing")
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, declared {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']} has no value ({value})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, absent


def report(result, metrics, absent):
    info = result["info"]
    host = ("kernel", "nproc", "cpus_allowed", "host_scale_p50")
    log("host: " + " ".join(f"{k}={info[k]}" for k in host if k in info))
    log("inputs: " + " ".join(f"{k}={v}" for k, v in info.items() if k not in host))
    if "host_scale_p50" in info:
        log("  times are host-scaled (e2ebench/FINDINGS.md, section 5); raw_run_* are not")
    for name, m in metrics.items():
        note = "  (n/a: layer not on this workload's path)" if name in absent else ""
        log(f"  {name:<30} {m['value']:>16.6f} {m['unit']}{note}")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        log(f"  check {status} {check['name']} ({check['passed']}/{check['total']}): {check['detail']}")
    flag = info.get("coverage_flag")
    if flag and flag != "none":
        log(f"  FLAG stage sum outside 10% of the parent span: {flag}")


def summary_line(result, metrics):
    checks_ok = all(check["ok"] for check in result["checks"])
    return json.dumps({
        "correct": bool(checks_ok and result["failed"] == 0),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def run(args, declared):
    root = os.getcwd()
    bin_dir = build(root)
    work = os.path.join(
        target_dir(root), "e2ebench-runs", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    # A short relative path keeps the Unix socket under its length limit.
    work = os.path.relpath(work, root)
    shutil.rmtree(work, ignore_errors=True)
    command = [
        os.path.join(bin_dir, "netcorr-e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(bin_dir, "netcorr-serve"),
        "--work-dir", work,
    ]
    # One CPU for the workload and every daemon it starts (they inherit
    # the mask), so the host-speed kernel runs where the daemon does.
    cpu = max(os.sched_getaffinity(0))
    log(f"pinned to cpu {cpu}")
    # Its own process group, so the daemons it spawns go down with it.
    try:
        proc = subprocess.Popen(
            command, cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except OSError as e:
        fail(f"cannot start the workload: {e}")
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Keep only the span dump of a traced run.
        if os.path.isdir(work):
            for entry in os.listdir(work):
                if entry != "spans.tsv":
                    path = os.path.join(work, entry)
                    shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
            if not os.listdir(work):
                os.rmdir(work)
    if stdout is None:
        fail(f"the workload did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in stdout.splitlines() if line.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        fail(f"the workload failed (exit {proc.returncode})")
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    metrics, absent = validate(result, declared, args.trace == 1)
    log(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    report(result, metrics, absent)
    print(summary_line(result, metrics), flush=True)


def self_test():
    root = os.getcwd()
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    command = [
        "cargo", "test", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    if subprocess.run(command, cwd=root, env=env).returncode != 0:
        fail("cargo tests failed")
    tests = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "test_benchmark.py")], cwd=root)
    if tests.returncode != 0:
        fail("BENCHMARK.json and result-line tests failed")


def main():
    declared = load_benchmark(os.getcwd())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    else:
        run(args, declared)


if __name__ == "__main__":
    main()
