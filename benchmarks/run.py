"""fluctuator benchmark: one closed-loop client, one fresh process per run.

    python3 benchmarks/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a source checkout; it imports fluctuator from
./src and exits 2 when that is missing.  Workloads (see workloads.py):

  exact-verify  verify --model lazy --horizon 64
  sweep-taux    expand taux --model skewed --x-max 30 --check-polyharmonic
                --horizon 8192
  law-batch     rounds of 12 seeded laws, each through expand tau0, expand
                local --x-max 10 and expand taux --x-max 10
                --check-polyharmonic at --horizon 2048

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: set-up
time (median over fresh interpreters that import fluctuator.cli and build
its parser), then, from one fresh interpreter issuing invocations back to
back for --seconds, the median pass wall time, the median and 90th
percentile invocation latency and the peak resident set size.  Times are
normalised by reference kernels (calibrate.py); the raw figures are printed
above the result.  --trace 1 runs a fixed number of passes untraced and
then traced (tracer.py), each in a fresh interpreter, and a third one for
the horizon scaling, and prints the per-layer metrics.

Children run with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.  Every
invocation goes through the correctness gate in workloads.py; failed
invocations over attempted ones are printed as failed_op_ratio and carried
by the "attempted" and "failed" fields of the JSON result, the last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import MOVES
from workloads import TRACE_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = tuple(TRACE_PASSES)
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0

_SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import fluctuator.cli as cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "import sys\n"
    "sys.path.insert(0, 'benchmarks')\n"
    "from calibrate import REFERENCE_S, Calibration\n"
    "c = Calibration('setup')\n"
    "c.sample()\n"
    "print(cli.__file__)\n"
    "print(repr(t))\n"
    "print(repr(t * REFERENCE_S / c.samples[0]))\n"
)
_VERSIONS_PROBE = (
    "import json, platform, mpmath, numpy\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'mpmath': mpmath.__version__}))\n"
)


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the child interpreters, each with a share of the time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["OMP_NUM_THREADS"] = "1"

    def run(self, argv: list[str]) -> str:
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a child could start")
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"child timed out: {argv[:2]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def worker(self, *args: str) -> dict:
        result = WORK / f"result-{os.getpid()}.json"
        self.run([str(HERE / "worker.py"), *args, "--result", str(result)])
        out = json.loads(result.read_text())
        result.unlink()
        if "fluctuator_file" in out and not _under_src(out["fluctuator_file"]):
            raise BenchError(f"fluctuator imported from {out['fluctuator_file']}, not {SRC}")
        return out

    def setup_seconds(self) -> tuple[float, float]:
        """Median (raw, normalised) import-and-parser time."""
        raw, normalised = [], []
        for _ in range(SETUP_RUNS):
            path, seconds, scaled = self.run(["-c", _SETUP_PROBE]).split()
            if not _under_src(path):
                raise BenchError(f"fluctuator imported from {path}, not {SRC}")
            raw.append(float(seconds))
            normalised.append(float(scaled))
        return statistics.median(raw), statistics.median(normalised)


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the fluctuator sources, which names the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fluctuator").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _gate_summary(ops: list[dict]) -> tuple[int, int, bool, dict]:
    """(attempted, failed, correct, failure reasons with counts).

    correct is False when an invocation produced a wrong result (see
    workloads.check_op); a wrong exit code or an uncaught exception is a
    failed invocation without a result to judge."""
    reasons: dict[str, int] = {}
    for op in ops:
        if op["failure"] is not None:
            reasons[op["failure"]] = reasons.get(op["failure"], 0) + 1
    correct = all(r.startswith(("exit ", "exception ")) for r in reasons)
    return len(ops), sum(reasons.values()), correct, reasons


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, work: Path):
    setup_raw, setup = runner.setup_seconds()
    res = runner.worker(
        "loop", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--work", str(work),
    )
    walls, raw_walls = res["normalised_pass_walls_s"], res["pass_walls_s"]
    latencies = [op["normalised_s"] for op in res["ops"]]
    raw = [op["latency_s"] for op in res["ops"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": _quantile(latencies, 0.9),
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    cal = res["calibration_samples_s"]
    notes = [
        "times are normalised to the reference kernels (calibrate.py); raw figures:",
        f"  wall_s {statistics.median(raw_walls):.6g} s, median over {len(walls)} passes",
        f"  op_p50_s {statistics.median(raw):.6g} s, op_p90_s {_quantile(raw, 0.9):.6g} s,"
        f" over {len(raw)} invocations",
        f"  setup_s {setup_raw:.6g} s, median over {SETUP_RUNS} fresh interpreters",
        f"  reference kernel {statistics.median(cal):.6g} s, median of {len(cal)} samples",
    ]
    return metrics, res["ops"], notes


def per_layer(runner: Runner, workload: str, seed: int, seconds: float, work: Path):
    common = ["loop", "--workload", workload, "--seed", str(seed),
              "--passes", str(TRACE_PASSES[workload]), "--work", str(work)]
    plain = runner.worker(*common)
    traced = runner.worker(*common, "--trace")
    spans = WORK / f"spans-{workload}.csv"
    shutil.copyfile(work / "spans.csv", spans)
    scaling = runner.worker("scaling")
    metrics = dict(traced["layers"])
    metrics.update(scaling["layers"])
    traced_wall = sum(traced["pass_walls_s"])
    self_sum = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = sum(plain["pass_walls_s"])
    # overhead from normalised walls: the two runs see different machine speeds
    untraced = sum(plain["normalised_pass_walls_s"])
    overhead = sum(traced["normalised_pass_walls_s"]) - untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / untraced
    metrics["trace.self_sum_ratio"] = self_sum / traced_wall
    notes = [f"traced {len(traced['ops'])} invocations in {TRACE_PASSES[workload]} passes"]
    for layer, moves in MOVES.items():
        share = traced["layers"][f"{layer}.self_s"] / traced_wall
        notes.append(f"{layer + '.self_s':<24} {share:7.2%} of traced wall; moves {moves}")
    notes.append("oracle.sweep.cells is computed, not measured: N + width*N*(N+1)/2 per sweep")
    notes.append(f"spans written to {spans}")
    return metrics, plain["ops"] + traced["ops"], notes


def run_workload(workload: str, args, spec: dict) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(monotonic() + TIME_LIMIT_S)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, ops, notes = measure(runner, workload, args.seed, args.seconds, work)
        env = json.loads(runner.run(["-c", _VERSIONS_PROBE]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    env.update(
        cores=os.cpu_count(), usable_cores=len(os.sched_getaffinity(0)),
        platform=platform.platform(), commit=commit(), src_sha256=source_digest(),
        workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    attempted, failed, correct, reasons = _gate_summary(ops)
    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    if workload == "law-batch":
        drawn = [op for op in ops if op["op"].endswith("/taux")]
        hit = sum(op["gate_defect"] for op in drawn)
        print(f"{hit} of {len(drawn)} laws run hit the left-continuity gate defect")
    for m in wanted:
        print(f"{m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"failed_op_ratio {failed}/{attempted} = {failed / attempted:.4f}", json.dumps(reasons))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fluctuator" / "__init__.py").is_file():
        print(f"error: no fluctuator source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = run_workload(workload, args, spec)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
