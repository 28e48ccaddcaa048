#!/usr/bin/env python3
"""alphaleak benchmark: one seeded closed-loop workload per run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload measure-closed --seed 1 --seconds 30 --trace 0

A run sets up (imports the library from ``src/``, builds the first pass
of inputs, warms up; timed ``SETUP_SAMPLES`` times in fresh interpreters,
median reported), then executes whole passes of the workload (see
``workloads.py``) one op after another until ``--seconds`` of measured
time have passed, and only then checks every output against
``reference.py``.  With ``--trace 1`` the first pass runs a second time
with every library layer wrapped by ``spans.Tracer``, and so does one
``run_verify`` trial (``workloads.verify_trial``, checked against its own
92 identity checks); the per-layer metrics come from those spans, which
are written to ``perfbench/out/``.  A traced run also calls one cell of
each row of ``workloads.KNOWN_FAILURES`` and counts those that still fail.

Times are rescaled to a reference host speed by ``calibrate.Calibrator``;
the raw values are printed and recorded as well.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workloads run with BLAS
limited to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make_pass(sys.argv[3], int(sys.argv[4]), 0)
workloads.warm_up(sys.argv[3], int(sys.argv[4]))
setup = time.perf_counter() - t0
import statistics, calibrate
kernel = statistics.median(calibrate.kernel_seconds() for _ in range(3))
print(setup, setup * calibrate.REFERENCE_S / kernel)
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("measure-closed", "measure-numeric"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    return args


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up time of fresh interpreters (import, first pass, warm-up):
    (raw, calibrated) seconds per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, calibrated = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(calibrated)))
    return samples


def call_ops(ops, results: list, tracer=None, calib=None) -> float:
    """Call each op in turn, appending (op, latency s, value, error) to
    ``results``; returns the seconds spent, calibration included."""
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = len(results)
        t0 = time.perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:  # a failed op is recorded and counted, not fatal
            value, error = None, exc
        latency = time.perf_counter() - t0
        results.append((op, latency, value, error))
        if calib is not None:
            calib.record(latency)
    return time.perf_counter() - start


def run_passes(workloads, workload: str, seed: int, seconds: float, calib, tracer=None,
               passes=None):
    """Closed loop over whole passes.  Returns (results, measured seconds,
    passes run); ``passes`` replays a given list instead of generating."""
    results = []
    ran = []
    measured = 0.0
    while (measured < seconds) if passes is None else (len(ran) < len(passes)):
        index = len(ran)
        ops = workloads.make_pass(workload, seed, index) if passes is None else passes[index]
        measured += call_ops(ops, results, tracer, calib)
        ran.append(ops)
    calib.finish()
    return results, measured, ran


class Checker:
    """Checks op outputs after timing; references are cached per cell."""

    def __init__(self, workloads, reference):
        self.w = workloads
        self.ref = reference
        self._cache = {}

    def reference(self, op) -> float:
        key = (op.instance.label, op.variant, op.alpha)
        if key not in self._cache:
            inst = op.instance
            self._cache[key] = self.ref.reference_mi(
                op.variant, inst.p.probs, inst.W.matrix, op.alpha)
        return self._cache[key]

    def failure(self, op, value, error):
        """None when the output is right, else a one-line reason."""
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        if op.instance is None:  # a verify trial
            checks = len(value.records)
            if checks != self.w.VERIFY_CHECKS_PER_TRIAL:
                return f"{checks} checks instead of {self.w.VERIFY_CHECKS_PER_TRIAL}"
            bad = value.failures
            return f"{len(bad)} checks failed, first {bad[0].identity}" if bad else None
        if not math.isfinite(value):
            return f"returned {value!r}"
        ref = self.reference(op)
        if op.route.endswith(":oracle"):
            tol = op.instance.p.n * op.resolution
        elif op.route.endswith(":optimize"):
            tol = self.w.OPTIMIZE_TOL * max(1.0, abs(ref))
        else:
            tol = self.w.CLOSED_TOL * max(1.0, abs(ref))
        err = abs(value - ref)
        return None if err <= tol else f"value {value!r} vs reference {ref!r} (tolerance {tol:.1e})"


def _environment(alphaleak, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build record is informational only
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "backend": alphaleak.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "alphaleak" / "__init__.py").is_file():
        print(f"error: no alphaleak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    setup = setup_seconds(args.workload, args.seed)
    import numpy as np

    import alphaleak
    import reference
    import workloads

    if Path(alphaleak.__file__).resolve().parent != SRC / "alphaleak":
        print(f"error: alphaleak imported from {alphaleak.__file__}", file=sys.stderr)
        return 2
    workloads.warm_up(args.workload, args.seed)

    calib = Calibrator()
    results, measured, passes = run_passes(workloads, args.workload, args.seed, args.seconds,
                                           calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    verify_run = []
    probe = []
    if args.trace:
        from spans import Tracer

        tracer, verify_tracer, traced_calib = Tracer(), Tracer(), Calibrator()
        tracer.install()
        try:
            traced, _, _ = run_passes(workloads, args.workload, args.seed, args.seconds,
                                      traced_calib, tracer=tracer, passes=passes[:1])
        finally:
            tracer.uninstall()
        verify_tracer.install()
        try:
            call_ops([workloads.verify_trial(args.seed)], verify_run, verify_tracer)
        finally:
            verify_tracer.uninstall()
        call_ops(workloads.probe(args.seed), probe)

    checker = Checker(workloads, reference)
    failures = []
    for op, _, value, error in results + traced + verify_run:
        reason = checker.failure(op, value, error)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    expected = [op.label for i in range(len(passes))
                for op in workloads.make_pass(args.workload, args.seed, i)]
    if expected != [op.label for op, _, _, _ in results]:
        failures.append(f"the {len(results)} ops run differ from the seed's op list")
    attempted = len(results) + len(traced) + len(verify_run)

    raw = [lat for _, lat, _, _ in results]
    scaled = calib.scale(raw)
    latencies_ms = sorted(lat * 1e3 for lat in scaled)
    ops_per_s = len(results) / sum(scaled)
    metrics = {
        "setup_s": _metric(statistics.median(cal for _, cal in setup), "s"),
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    extra = {
        "fail_frac": _metric(len(failures) / attempted, "fraction"),
        "raw_setup_s": _metric(statistics.median(r for r, _ in setup), "s"),
        "raw_ops_per_s": _metric(len(raw) / sum(raw), "1/s"),
        "raw_op_p50_ms": _metric(statistics.median(raw) * 1e3, "ms"),
        "host_slowdown": _metric(calib.speed(), "ratio"),
    }
    if len(latencies_ms) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_p90_ms"] = _metric(statistics.quantiles(latencies_ms, n=10)[-1], "ms")
    if args.trace:
        layer = tracer.per_layer()
        traced_ops_per_s = len(traced) / sum(traced_calib.scale(lat for _, lat, _, _ in traced))
        first_pass_ops_per_s = len(traced) / sum(scaled[:len(traced)])
        layer.update({k: v for k, v in verify_tracer.per_layer().items()
                      if k.startswith("verify.")})
        layer["trace.ops_per_s"] = _metric(traced_ops_per_s, "1/s")
        layer["trace.overhead_frac"] = _metric(first_pass_ops_per_s / traced_ops_per_s - 1.0,
                                               "fraction")
        layer["known_failures.cells"] = _metric(len(probe), "count")
        layer["known_failures.failing"] = _metric(
            sum(1 for op, _, v, e in probe if checker.failure(op, v, e) is not None), "count")
        metrics = layer

    env = _environment(alphaleak, np)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": len(passes), "ops": len(results), "measured_s": measured,
              "setup_samples_s": setup, "environment": env,
              "metrics": {**metrics, **extra}, "failures": failures,
              "op_latencies_ms": [(op.label, lat * 1e3) for op, lat, _, _ in results],
              "known_failure_probe": [(op.label, None if e is None else type(e).__name__,
                                       None if v is None else float(v))
                                      for op, _, v, e in probe]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(results)} ops in {measured:.2f} s measured")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  op latency samples: {len(latencies_ms)}; set-up samples: {len(setup)}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
