"""Child process of the benchmark: one fresh interpreter per measurement.

    worker.py loop --workload W --seed N --seconds S [--passes P] [--trace]
                   --work DIR --result FILE
    worker.py scaling --result FILE

`loop` is the closed-loop client: it imports fluctuator.cli once and calls
`cli.main(argv)` in-process for one invocation after another, one pass at a
time.  It starts another pass only while one as long as the last would
end within S seconds of the start (always at least one), or runs exactly P
passes when P is given.  Every invocation is timed alone, between two samples of the
reference kernels (calibrate.py) that normalise its latency; its output is
checked by the correctness gate afterwards, outside the timing.  With
--trace the modules are wrapped by tracer.Tracer before the first
invocation.

`scaling` times oracle.delta_table and oracle.conditioned_table at
N = 2^11 .. 2^15 and rational oracle.tau_tail at N = 64 .. 256, one call
each, and fits the log-log exponent of time against N.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import Calibration

SWEEP_HORIZONS = tuple(1 << k for k in range(11, 16))
EXACT_HORIZONS = (64, 128, 256)


def _invoke(cli, argv: list[str]):
    """(rc or exception class name, stdout, latency in s)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # the gate counts it as a failed invocation
        rc = type(exc).__name__
    return rc, out.getvalue(), perf_counter() - t0


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def cmd_loop(args) -> dict:
    import fluctuator
    from fluctuator import cli

    work = Path(args.work)
    out_dir, model_dir = work / "out", work / "models"
    _clear(model_dir)
    reference = workloads.load_reference(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(fluctuator)

    calibration = Calibration(workloads.CALIBRATION[args.workload])
    ops, passes = [], []
    artifact_bytes = artifact_files = 0
    start = perf_counter()
    for ops_of_pass in workloads.passes(args.workload, args.seed, model_dir):
        pass_start = perf_counter()
        passes.append([])
        if tracer is not None:
            tracer.start_pass()
        for op in ops_of_pass:
            _clear(out_dir)
            argv = list(op.argv)
            if op.kind != "verify":
                argv += ["--out-dir", str(out_dir)]
            calibration.sample()  # sample i precedes op i
            rc, stdout, latency = _invoke(cli, argv)
            failure = workloads.check_op(op, rc, stdout, out_dir, reference)
            files = [p for p in out_dir.iterdir() if p.is_file()]
            artifact_files += len(files)
            artifact_bytes += sum(p.stat().st_size for p in files)
            passes[-1].append(len(ops))
            ops.append({"op": op.ref_key, "latency_s": latency, "rc": rc, "failure": failure,
                        "gate_defect": op.gate_defect})
        now = perf_counter()
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif now - start + (now - pass_start) > args.seconds:
            break
    calibration.sample()
    for i, op in enumerate(ops):
        op["normalised_s"] = op["latency_s"] * calibration.factor(i)

    result = {
        "ops": ops,
        "pass_walls_s": [sum(ops[i]["latency_s"] for i in p) for p in passes],
        "normalised_pass_walls_s": [sum(ops[i]["normalised_s"] for i in p) for p in passes],
        "calibration_samples_s": calibration.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fluctuator_file": fluctuator.__file__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.artifact_bytes"] = float(artifact_bytes)
        layers["cli.artifact_files"] = float(artifact_files)
        result["layers"] = layers
        tracer.write(work / "spans.csv")
    return result


def _fit_exponent(horizons, seconds) -> float:
    xs = [math.log(n) for n in horizons]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _time(fn, *args, **kwargs) -> float:
    t0 = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - t0


def cmd_scaling(args) -> dict:
    from fluctuator import oracle, walk

    skewed, lazy = walk.skewed_walk(), walk.lazy_walk()
    out: dict[str, float] = {}
    delta = [_time(oracle.delta_table, skewed, n) for n in SWEEP_HORIZONS]
    cond = [_time(oracle.conditioned_table, skewed, n, 30) for n in SWEEP_HORIZONS]
    exact = [_time(oracle.tau_tail, lazy, 0, n, mode="rational") for n in EXACT_HORIZONS]
    for n, a, b in zip(SWEEP_HORIZONS, delta, cond):
        out[f"scale.delta_table.n{n}_s"] = a
        out[f"scale.conditioned_table.n{n}_s"] = b
    for n, t in zip(EXACT_HORIZONS, exact):
        out[f"scale.tau_tail_rational.n{n}_s"] = t
    # one exponent over both sweep kernels: their horizons are shared
    out["oracle.sweep.horizon_exponent"] = _fit_exponent(
        SWEEP_HORIZONS + SWEEP_HORIZONS, delta + cond
    )
    out["oracle.exact.horizon_exponent"] = _fit_exponent(EXACT_HORIZONS, exact)
    return {"layers": out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("loop")
    p.add_argument("--workload", required=True, choices=sorted(workloads.TRACE_PASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_loop)
    p = sub.add_parser("scaling")
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_scaling)
    args = ap.parse_args()
    result = args.func(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
