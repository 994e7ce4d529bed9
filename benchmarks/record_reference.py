"""Record the reference outputs the correctness gate compares against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/record_reference.py [WORKLOAD ...]

Runs every invocation a workload can issue (for law-batch: every law of the
pool, see laws.py) once through `cli.main` and writes the digests to
reference/<workload>.json.  An invocation must exit 0, with one exception:
`expand taux` on a law that hits the left-continuity gate defect exits 2,
so its reference is the same ladder computed through the library, as the
command would write it without the gate.  Rerun only when a change of
method is meant to change the coefficients.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
from pathlib import Path

import mpmath
import numpy

import laws
import run
import workloads
from fluctuator import cli, polyharmonic, walk

WORK = Path(__file__).resolve().parent.parent / ".bench_work" / "reference"


def _run(op: workloads.Op) -> tuple[int, str]:
    shutil.rmtree(WORK / "out", ignore_errors=True)
    argv = list(op.argv)
    if op.kind != "verify":
        argv += ["--out-dir", str(WORK / "out")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _taux_from_library(atoms) -> dict:
    """The coefficient block `expand taux --terms 2` would write."""
    law = walk.make_law(atoms)
    J, x_max = 2, int(workloads.LAW_X_MAX)
    guard = J * max(law.support) + 2
    ladder = polyharmonic.v_ladder(law, x_max=x_max + guard, J=J, N=int(workloads.LAW_HORIZON))
    doc = {
        "nu": {f"nu_{j}": {"value": ladder.nu[j - 1]} for j in range(1, J + 1)},
        "V": {
            f"V_{j}": {str(x): {"value": float(ladder[j][x])} for x in range(x_max + 1)}
            for j in range(1, J + 1)
        },
    }
    return {"files": {"taux_coeffs.json": {"values": workloads.coefficient_values(doc)}},
            "source": "library: expand taux exits 2 on this law (left-continuity gate)"}


def record(workload: str) -> dict:
    ops: dict[str, dict] = {}
    if workload == "law-batch":
        model_dir = WORK / "models"
        model_dir.mkdir(parents=True, exist_ok=True)
        todo = []
        for pattern in range(len(laws.PATTERNS)):
            for variant in range(laws.VARIANTS):
                atoms = laws.pool_law(pattern, variant)
                law_id = laws.law_id(pattern, variant)
                path = model_dir / f"{law_id}.json"
                path.write_text(json.dumps(laws.model_json(atoms)))
                ops_of_law = workloads.law_ops(law_id, str(path), laws.hits_gate_defect(atoms))
                todo += [(op, atoms) for op in ops_of_law]
    else:
        todo = [(op, None) for op in next(workloads.passes(workload, 0, WORK))]
    for op, atoms in todo:
        rc, stdout = _run(op)
        if rc == 0:
            digest = workloads.digest_outputs(op, stdout, WORK / "out")
            ops[op.ref_key] = digest if op.kind == "verify" else {"files": digest}
        elif op.gate_defect:
            ops[op.ref_key] = _taux_from_library(atoms)
        else:
            raise SystemExit(f"{op.ref_key}: exit {rc}\n{stdout}")
    return {
        "recorded_with": {
            "commit": run.commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
        },
        "tolerance": {"rtol": workloads.RTOL, "atol": workloads.ATOL},
        "ops": ops,
    }


def main() -> None:
    names = sys.argv[1:] or sorted(workloads.TRACE_PASSES)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        doc = record(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        ops = doc.pop("ops")
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ops.items())]
        head = json.dumps(doc, sort_keys=True)[:-1]  # one line per invocation below
        path.write_text(head + ', "ops": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"wrote {path} ({len(ops)} invocations)")
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
