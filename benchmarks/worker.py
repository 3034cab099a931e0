"""One benchmark child process: set up a workload, then measure or trace it.

Usage (``run.py`` starts it with one BLAS thread and ``src`` on the path):

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --out-dir DIR

``setup`` only times the set-up: importing altiter and building the
workload's inputs.  ``measure`` then warms up and runs a closed loop of
ops for S seconds (and at least MIN_OPS ops).  ``trace`` runs the same
untraced loop, as the baseline for the tracing overhead, then one traced
pass over the input cycle, and writes the spans to DIR.  The result is
one JSON object on the last line of stdout.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

_T0 = time.perf_counter()  # set-up time starts before numpy and altiter load

from workloads import WORKLOADS, CheckFailed  # noqa: E402  (timed import)

MIN_OPS = 100          # p90 needs ten samples beyond it
MAX_MEASURE_FACTOR = 3  # stop at 3x --seconds even below MIN_OPS
WARMUP_OPS = 2
WARMUP_SECONDS = 1.0


class Runner:
    """Runs ops of one workload and counts those that fail."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def one(self, i, wrap=None):
        """Run op i, then check its output outside the timed region.

        Returns the op's wall time in ns, or None when the op raised.
        """
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            if wrap is None:
                result = self.workload.run(i)
            else:
                with wrap(i):
                    result = self.workload.run(i)
            elapsed = time.perf_counter_ns() - start
        except Exception:  # an op that raises is a failed op, not a crash
            self._fail(f"op {i}: raised\n{traceback.format_exc()}")
            return None
        try:
            self.workload.check(i, result)
        except CheckFailed as exc:
            self._fail(f"op {i}: check failed: {exc}")
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message
            print(message, file=sys.stderr)

    def closed_loop(self, seconds, first_op):
        """Ops back to back for ``seconds`` and at least MIN_OPS ops."""
        latencies, i = [], first_op
        start = time.perf_counter()
        while True:
            elapsed = self.one(i)
            i += 1
            if elapsed is not None:
                latencies.append(elapsed)
            wall = time.perf_counter() - start
            if wall >= seconds and i - first_op >= MIN_OPS:
                break
            if wall >= MAX_MEASURE_FACTOR * seconds:
                break
        return latencies, i - first_op


def _environment():
    import numpy as np
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    import altiter
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(altiter.__file__).startswith(src + os.sep):
        print(f"altiter was imported from {altiter.__file__}, not {src}", file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            result.update(_measure(args, workload))
    print(json.dumps(result))
    return 0


def _measure(args, workload):
    runner = Runner(workload)
    i, warm_start = 0, time.perf_counter()
    while i < WARMUP_OPS or time.perf_counter() - warm_start < WARMUP_SECONDS:
        runner.one(i)
        i += 1
    latencies, ops = runner.closed_loop(args.seconds, first_op=i)
    if len(latencies) < 2:
        raise RuntimeError(f"only {len(latencies)} of {ops} timed ops completed")
    out = {
        "warmup_ops": i,
        "ops": ops,
        "op_time_s": sum(latencies) / 1e9,
        "samples": len(latencies),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] / 1e6,
        "env": _environment(),
    }
    if args.mode == "trace":
        out.update(_trace(args, workload, runner, out["latency_p50_ms"]))
    out["attempted"], out["failed"] = runner.attempted, runner.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _trace(args, workload, runner, untraced_p50_ms):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = workload.cycle
        for i in range(traced_ops):
            runner.one(i, wrap=tracer.op)
    finally:
        tracer.uninstall()
    traced = tracer.op_latencies_ns()
    layers = tracer.layer_metrics(traced_ops)
    layers["trace.overhead_ratio"] = statistics.median(traced) / 1e6 / untraced_p50_ms
    path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "traced_ops": traced_ops,
                   "columns": ["op", "name", "start_ns", "end_ns", "parent"],
                   "spans": tracer.dump(), "layers": layers}, fh)
    return {"traced_ops": traced_ops, "layers": layers, "spans_file": path}


if __name__ == "__main__":
    sys.exit(main())
