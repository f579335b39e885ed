"""Run one radialgeo benchmark workload; print its metrics as JSON.

    python3 radialbench/run.py --workload geodesy --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and exits with status 2, printing no result, when that is missing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs closed-loop rounds of the workload for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` runs a fixed number of rounds
twice on the same inputs, first plain and then with spans recorded around
the program's public functions, writes the spans to
``radialbench/out/trace-<workload>-<seed>.npz`` and reports the per-layer
metrics computed from that file. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one thread: numpy's and scipy's BLAS would otherwise each start a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 -- after the thread settings

import reference as ref  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-up is repeated this many times per run; setup_s takes the median
SETUP_REPEATS = 5
# rounds of each pass of a traced run (a fixed amount of work, so counts and
# times compare between commits)
TRACE_ROUNDS = {"scenario-mixed": 6, "geodesy": 40, "curvature-corpus": 5}
CAL_CURVATURE = ref.SplineCurvature([0.0, 1.0], [-1.0, -0.5], ("zero",))


class SpeedClock:
    """Machine speed, sampled between operations.

    On a shared 2-vCPU virtual machine the speed drifts by up to 1.8x over
    tens of seconds, for reasons outside the process (process CPU time
    drifts with wall time), so raw wall times of two runs differ by more
    than any useful bound.
    A fixed calibration loop (``reference.ReferenceWarping`` on a fixed
    curvature: scipy's DOP853 with a Python right-hand side, the same kind
    of work the program does) is timed at least every ``EVERY`` seconds at
    operation boundaries. ``scaled`` converts a wall time measured at some
    moment to the time it would take when the loop takes ``CAL_NOMINAL_S``,
    interpolating the loop's duration between samples.
    """

    EVERY = 0.2
    CAL_NOMINAL_S = 3.0e-3

    def __init__(self):
        self.at, self.cal = [], []
        self.loop()  # first calls load scipy code paths

    @staticmethod
    def loop() -> float:
        best = math.inf
        for _ in range(2):
            t0 = perf_counter()
            ref.ReferenceWarping(CAL_CURVATURE, 1.0, rtol=1e-10)
            best = min(best, perf_counter() - t0)
        return best

    def sample(self, force=False):
        if force or not self.at or perf_counter() - self.at[-1] >= self.EVERY:
            cal = self.loop()
            self.at.append(perf_counter())
            self.cal.append(cal)

    def scaled(self, start: float, seconds: float) -> float:
        cal = float(np.interp(start + seconds / 2.0, self.at, self.cal))
        return seconds * self.CAL_NOMINAL_S / cal


def run_rounds(workload, clock, *, seconds=None, rounds=None, tracer=None, log=None):
    """Closed loop over whole rounds; returns (latencies, attempted, failed,
    check failures). Only ``op.call`` is timed; latencies are scaled by the
    clock."""
    raw, failures = [], []
    attempted = failed = 0
    index = 0
    t_begin = perf_counter()
    while True:
        for op in workload.round(index):
            attempted += 1
            clock.sample()
            t0 = perf_counter()
            try:
                result = op.call() if tracer is None else tracer.root("op", op.call)
            except Exception:  # noqa: BLE001 -- a raising operation counts as failed
                failed += 1
                if log is not None:
                    log.append(f"round {index} {op.kind}: {traceback.format_exc()}")
                continue
            raw.append((t0, perf_counter() - t0))
            try:
                op.check(result)
            except Exception as exc:  # noqa: BLE001 -- CheckFailed or a broken result
                failures.append(f"round {index} {op.kind}: {exc!r}")
        index += 1
        if rounds is not None and index >= rounds:
            break
        if seconds is not None and perf_counter() - t_begin >= seconds:
            break
    clock.sample(force=True)
    latencies = [clock.scaled(t0, dt) for t0, dt in raw]
    return latencies, attempted, failed, failures


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s, latencies):
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MiB"),
    }


def per_layer(trace, acc, output_bytes, overhead, speed):
    """Per-layer metrics of a trace file. A layer the workload never calls
    is read from the probe spans (see ``probe.py``). Times are scaled by
    ``speed``, the SpeedClock factor of the traced pass."""
    loop_roots, probe_roots = ("setup", "op"), ("probe",)

    def spans(name):
        idx = trace.select(name, loop_roots)
        return idx if idx.size else trace.select(name, probe_roots)

    def incl(name):
        return speed * float(trace.dur[trace.outermost(spans(name), [name])].sum())

    def self_s(name):
        return speed * float(trace.self_time[spans(name)].sum())

    def calls(name):
        return spans(name).size

    solves = spans("warping.solve")
    distinct = len(set(zip(trace.root[solves].tolist(), trace.arg[solves].tolist())))
    geo_names = ["geodesics.distance", "geodesics.triangle", "geodesics.gauss_bonnet"]
    geo_roots = loop_roots if any(trace.select(n, loop_roots).size for n in geo_names) \
        else probe_roots
    geo_ops = sum(trace.outermost(trace.select(n, geo_roots), geo_names).size
                  for n in geo_names)
    geo_evals = trace.under(trace.select("warping.eval", geo_roots), geo_names).size

    out = {
        "curvature.eval_calls": metric(calls("curvature.eval"), "count"),
        "curvature.eval_s": metric(incl("curvature.eval"), "s"),
        "curvature.envelope_s": metric(incl("curvature.envelope"), "s"),
        "curvature.moment_s": metric(incl("curvature.moment"), "s"),
        "warping.solve_calls": metric(solves.size, "count"),
        "warping.solve_self_s": metric(self_s("warping.solve"), "s"),
        "warping.solves_per_curvature": metric(solves.size / distinct, "ratio"),
        "warping.interp_build_s": metric(incl("warping.interp_build"), "s"),
        "warping.interp_nodes": metric(trace.arg[spans("warping.interp_build")].sum(), "count"),
        "warping.eval_calls": metric(calls("warping.eval"), "count"),
        "warping.eval_s": metric(incl("warping.eval"), "s"),
        "warping.slope_limit_s": metric(incl("warping.slope_limit"), "s"),
        "warping.total_curvature_s": metric(incl("warping.total_curvature"), "s"),
        "volume.ball_volume_calls": metric(calls("volume.ball_volume"), "count"),
        "volume.ball_volume_s": metric(incl("volume.ball_volume"), "s"),
        "volume.classify_s": metric(incl("volume.classify"), "s"),
        "volume.growth_ratio_s": metric(incl("volume.growth_ratio"), "s"),
        "geodesics.distance_s": metric(incl("geodesics.distance"), "s"),
        "geodesics.triangle_s": metric(incl("geodesics.triangle"), "s"),
        "geodesics.gauss_bonnet_s": metric(incl("geodesics.gauss_bonnet"), "s"),
        "geodesics.interp_evals_per_op": metric(geo_evals / geo_ops, "count"),
        "synthetic.manifold_build_s": metric(incl("synthetic.manifold_build"), "s"),
        "criteria.check_self_s": metric(self_s("criteria.check"), "s"),
        "cli.run_self_s": metric(self_s("cli.run"), "s"),
        "cli.output_bytes": metric(statistics.mean(output_bytes), "bytes"),
        "geodesics.max_abs_err": metric(acc.worst["geo_abs_err"], "abs"),
        "geodesics.max_gb_residual": metric(acc.worst["gb_residual"], "rad"),
        "warping.max_iso_diff": metric(acc.worst["iso_diff"], "abs"),
        "warping.slope_err_over_bound": metric(acc.worst["slope_err_over_bound"], "ratio"),
        "volume.max_rel_err": metric(acc.worst["vol_rel_err"], "ratio"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radialgeo" / "__init__.py").is_file():
        print(f"error: no radialgeo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the benchmark's own imports (numpy, scipy) come before the timed import
    import probe
    import workloads
    from tracing import Trace, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    clock = SpeedClock()
    sys.path.insert(0, str(SRC))
    clock.sample(force=True)
    t0 = perf_counter()
    import radialgeo as rg
    import_s = clock.scaled(t0, perf_counter() - t0)

    workdir = OUT / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](rg, args.seed, workdir)
    log: list[str] = []
    try:
        if not args.trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                clock.sample(force=True)
                t0 = perf_counter()
                wl.setup()
                setups.append((t0, perf_counter() - t0))
            clock.sample(force=True)
            setups = [clock.scaled(t0, dt) for t0, dt in setups]
            latencies, attempted, failed, failures = run_rounds(
                wl, clock, seconds=args.seconds, log=log)
            metrics = end_to_end(import_s + statistics.median(setups), latencies)
        else:
            rounds = TRACE_ROUNDS[args.workload]
            tracer = Tracer()
            tracer.install()
            tracer.root("setup", wl.setup)
            tracer.uninstall()
            plain, attempted, failed, failures = run_rounds(wl, clock, rounds=rounds, log=log)
            tracer.install()
            first_sample = len(clock.cal)
            latencies, *counts = run_rounds(wl, clock, rounds=rounds, tracer=tracer, log=log)
            attempted, failed, failures = attempted + counts[0], failed + counts[1], \
                failures + counts[2]
            output_bytes = getattr(wl, "output_bytes", [])
            probe.cover(rg, tracer, wl.acc, output_bytes, workdir)
            tracer.uninstall()
            OUT.mkdir(parents=True, exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.npz"
            tracer.write(trace_path)
            metrics = per_layer(Trace(trace_path), wl.acc, output_bytes,
                                sum(latencies) / sum(plain),
                                clock.CAL_NOMINAL_S / statistics.median(clock.cal[first_sample:]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in log + failures:
        print(line, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
