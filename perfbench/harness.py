"""Runs one workload, checks it, and prints its metrics."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

import layers
import workloads

RECORDS = os.path.join(".perfbench", "records")
WORK = os.path.join(".perfbench", "work")


def main(args, root: str, spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    cap = args.mem_cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    work_dir = os.path.join(root, WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    ctx = workloads.Context(seed=args.seed, work_dir=work_dir,
                            traced=bool(args.trace))
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except MemoryError as err:
        outcome = None
        failure = f"memory cap of {args.mem_cap_mb} MB exceeded: {err!r}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if outcome is not None:
        compare_with_earlier_runs(root, args, outcome)
        metrics = end_to_end(outcome) if not args.trace else outcome.layer
        failures = outcome.failures
        attempted, failed = outcome.attempted, outcome.failed_ops
    else:
        metrics = {} if args.trace else {"peak_rss_mb": peak_rss_mb()}
        failures, attempted, failed = [failure], 1, 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return report(outcome, metrics, wanted, failures, attempted, failed)


def end_to_end(outcome) -> dict:
    return {
        "setup_s": statistics.median(outcome.setup_s) if outcome.setup_s else 0.0,
        "run_s": outcome.run_s,
        "throughput_per_s": outcome.items / outcome.items_s if outcome.items_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(outcome, metrics, wanted, failures, attempted, failed) -> int:
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for line in manifest_lines():
        print(line)
    if outcome is not None:
        if outcome.notes.get("absent"):
            print(f"# absent trace targets: {', '.join(outcome.notes['absent'])}")
        if "test_mrr" in outcome.notes:
            print(f"# test_mrr = {outcome.notes['test_mrr']!r}")
        print(f"# samples: setup {len(outcome.setup_s)}, "
              f"step {len(outcome.step_s)}")
        if len(outcome.step_s) <= 4:
            print(f"# step_s: {', '.join(f'{s:.3f}' for s in outcome.step_s)}")
    for m in wanted:
        value = metrics.get(m["name"], 0)
        print(f"{m['name']} = {value!r} {m['unit']}")
    for message in failures:
        print(f"# FAILED: {message}")
    if missing and outcome is not None:
        print(f"# not measured on this workload (reported as 0): "
              f"{', '.join(missing)}")
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed if failures else 0),
        "metrics": {m["name"]: {"value": _number(metrics.get(m["name"], 0)),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _number(value):
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def manifest_lines():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [f"# nproc {len(os.sched_getaffinity(0))}, blas threads "
            f"{os.environ.get('OPENBLAS_NUM_THREADS')}, python "
            f"{sys.version.split()[0]}, numpy {np.__version__}, blas "
            f"{blas.get('name', '?')} {blas.get('version', '?')}"]


# ------------------------------------------------- same-seed repeatability

def code_fingerprint(root: str) -> str:
    """Hash of the program and benchmark sources: records are per version."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(root, "src", "adamf", "**", "*.py"),
                             recursive=True)
                   + glob.glob(os.path.join(root, "perfbench", "*.py")))
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(root: str, args, outcome):
    """Outputs, and on traced runs the exact counts, must equal those of
    every earlier run of the same workload, seed and sources."""
    current = dict(outcome.record)
    if args.trace:
        current["counts"] = layers.exact_counts(outcome.layer)
    path = os.path.join(root, RECORDS, f"{code_fingerprint(root)}-"
                                       f"{args.workload}-{args.seed}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    for key, value in current.items():
        if key in earlier and json.loads(json.dumps(value)) != earlier[key]:
            outcome.fail(f"{key} differ from an earlier run with seed {args.seed}")
    if outcome.failures:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({**earlier, **current}, fh)
    os.replace(tmp, path)


# ------------------------------------------------------------ all at once

def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"## {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--mem-cap-mb", str(args.mem_cap_mb)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  {name} exited with code {proc.returncode} and no result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0
