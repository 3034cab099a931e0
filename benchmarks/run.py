"""altiter benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in child processes (``worker.py``) with one BLAS
thread, importing altiter from the checkout's ``src``.  With ``--trace 0``
the benchmark starts SETUP_RUNS children; each times importing altiter
and building the workload's inputs, and the middle one then warms up and
runs a closed loop of ops (one client, one call per op) for S seconds.
It prints every end-to-end metric named in BENCHMARK.json.  With
``--trace 1`` a single child runs the same loop and then one traced pass
over the workload's inputs, and the benchmark prints every per-layer
metric.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_RUNS = 5          # set-up is timed in this many fresh processes
DEADLINE_SECONDS = 170  # one workload run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))


def _git_revision(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _child_env(root: str) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("ALTITER_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    return env


def _child(root: str, args, workload: str, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", os.path.join(root, ".bench_out")]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _run_workload(root: str, args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_SECONDS
    if args.trace:
        return _child(root, args, workload, "trace", deadline)
    # set-up probes before and after the measured child, so that the
    # median of a short timing spans more than one moment of machine load
    probes = SETUP_RUNS - 1
    setups = [_child(root, args, workload, "setup", deadline)["setup_s"]
              for _ in range(probes // 2)]
    result = _child(root, args, workload, "measure", deadline)
    setups.append(result["setup_s"])
    setups += [_child(root, args, workload, "setup", deadline)["setup_s"]
               for _ in range(probes - probes // 2)]
    result["setup_s"] = statistics.median(setups)
    result["setup_runs"] = setups
    return result


def _end_to_end(result: dict) -> dict[str, float]:
    return {
        "ops_per_s": result["samples"] / result["op_time_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p90_ms": result["latency_p90_ms"],
        "setup_s": result["setup_s"],
        "error_rate": result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _report(workload: str, why: str, result: dict, values: dict, units: dict) -> None:
    print(f"== {workload}: {why}")
    notes = {
        "ops_per_s": f"{result['samples']} ops in {result['op_time_s']:.2f} s of op time, "
                     f"1 client",
        "latency_p50_ms": f"{result['samples']} samples",
        "latency_p90_ms": f"{result['samples']} samples",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in result.get("setup_runs", [])),
        "error_rate": f"{result['failed']} failed of {result['attempted']} attempted",
        "trace.overhead_ratio": f"traced p50 over untraced p50, {result.get('traced_ops')} "
                                f"traced ops",
    }
    for name, value in values.items():
        unit = units.get(name) or _unit_from_name(name)
        print(f"   {name:<34} {value:>14.6g} {unit:<9} {notes.get(name, '')}")


def _unit_from_name(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("calls", "count")):
        if name.endswith(suffix):
            return unit
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "altiter", "__init__.py")):
        print("error: run from the root of an altiter checkout (src/altiter not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(whys) if args.workload == "all" else [args.workload]
    if any(name not in whys for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(whys)}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(ops_per_s="ops/s", error_rate="fraction")

    env_printed = False
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        try:
            result = _run_workload(root, args, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not env_printed:
            env = dict(result["env"], git_revision=_git_revision(root), seed=args.seed)
            print("env: " + json.dumps(env, sort_keys=True))
            env_printed = True
        values = result["layers"] if args.trace else _end_to_end(result)
        _report(name, whys[name], result, values, units)
        if args.trace:
            print(f"   spans written to {os.path.relpath(result['spans_file'], root)}")
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for metric in declared:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]],
                                                "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
