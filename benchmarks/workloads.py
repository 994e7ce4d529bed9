"""Workload definitions and the per-invocation correctness gate.

A workload is a stream of passes; a pass is a list of CLI invocations
(`Op`).  Every invocation is expected to exit 0.  After it returns, the gate
checks its output:

  verify   every line reads PASS and every check named in the reference ran;
  expand   every artifact parses (JSON, or CSV with finite numbers and the
           reference row count), and every coefficient value under the
           keys in COEFF_KEYS matches the reference within
           |got - ref| <= RTOL * |ref| + ATOL.

RTOL sits well above float rounding, which the psi sums amplify by up to
n^2 at these horizons, and well below any change of method.  Diagnostics,
error estimates and polyharmonic defects are rounding-level numbers with
their own pass thresholds inside the program (exit code 1), so the gate
leaves their values alone.

References are recorded from the program by record_reference.py and live in
reference/<workload>.json.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import laws

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

RTOL = 1e-6
ATOL = 1e-12
COEFF_KEYS = ("nu", "psi", "U", "V", "V_leftcont")

EXIT_CHECK_FAILED = 1  # fluctuator.cli.EXIT_CHECK_FAILED
LAW_HORIZON = "2048"
LAW_X_MAX = "10"


@dataclass(frozen=True)
class Op:
    kind: str  # verify | tau0 | local | taux
    argv: tuple[str, ...]  # CLI arguments without --out-dir
    ref_key: str
    gate_defect: bool = False  # law-batch law that hits the left-continuity gate


# Passes in one traced run: the traced run does a fixed amount of work.
TRACE_PASSES = {"exact-verify": 8, "sweep-taux": 6, "law-batch": 3}
# Reference-kernel mix (calibrate.KERNELS) that matches each workload's arithmetic.
CALIBRATION = {"exact-verify": "exact", "sweep-taux": "sweep", "law-batch": "batch"}


def passes(workload: str, seed: int, model_dir: Path):
    """Yield the passes of a workload forever; law-batch writes the model
    file of every law it draws into model_dir before yielding its pass.

    The horizons keep each invocation near a second or less, short enough
    for the calibration samples around it to track the machine's speed,
    while the layer a workload is for still dominates: about 99% of
    verify --horizon 64 is oracle.exact, about 90% of expand taux
    --horizon 8192 is oracle.sweep."""
    if workload == "exact-verify":
        op = Op("verify", ("verify", "--model", "lazy", "--horizon", "64"), "verify")
        while True:
            yield [op]
    if workload == "sweep-taux":
        op = Op(
            "taux",
            ("expand", "taux", "--model", "skewed", "--x-max", "30", "--terms", "2",
             "--check-polyharmonic", "--horizon", "8192"),
            "taux",
        )
        while True:
            yield [op]
    if workload == "law-batch":
        rng = random.Random(seed)
        while True:
            ops = []
            for law_id, atoms in laws.draw_round(rng):
                path = model_dir / f"{law_id}.json"
                path.write_text(json.dumps(laws.model_json(atoms)))
                ops.extend(law_ops(law_id, str(path), laws.hits_gate_defect(atoms)))
            yield ops
    raise ValueError(f"unknown workload {workload!r}")


def law_ops(law_id: str, model: str, gate_defect: bool) -> list[Op]:
    """The three invocations a law-batch law goes through."""
    common = ("--model", model, "--horizon", LAW_HORIZON)
    return [
        Op("tau0", ("expand", "tau0") + common, f"{law_id}/tau0"),
        Op("local", ("expand", "local", "--x-max", LAW_X_MAX) + common, f"{law_id}/local"),
        Op("taux", ("expand", "taux", "--x-max", LAW_X_MAX, "--check-polyharmonic") + common,
           f"{law_id}/taux", gate_defect=gate_defect),
    ]


# ---------------------------------------------------------------------------
# artifact digests shared by the gate and the reference recorder

_VERIFY_LINE = re.compile(r"^(?P<name>\S.*?)\s{2,}(?P<status>PASS|FAIL)(?:\s{2}(?P<detail>.*))?$")


def verify_lines(stdout: str) -> list[tuple[str, str]]:
    """(check name, PASS|FAIL) per line; raises ValueError on a line that
    does not parse."""
    out = []
    for line in stdout.strip().splitlines():
        m = _VERIFY_LINE.match(line.rstrip())
        if m is None:
            raise ValueError(f"unparsed verify line {line!r}")
        out.append((m["name"], m["status"]))
    return out


def coefficient_values(doc: dict) -> dict[str, float]:
    """Flatten every {"value": v} leaf under COEFF_KEYS to "a/b/c" -> v."""
    flat: dict[str, float] = {}

    def walk(node, path):
        if isinstance(node, dict):
            if "value" in node:
                flat[path] = float(node["value"])
                return
            for k, v in node.items():
                walk(v, f"{path}/{k}")

    for key in COEFF_KEYS:
        if key in doc:
            walk(doc[key], key)
    return flat


def csv_digest(path: Path) -> dict:
    """Header and row count of a numeric CSV; raises ValueError when a field
    is not a finite number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = 0
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path.name}: ragged row {rows + 1}")
            for cell in row:
                if not math.isfinite(float(cell)):
                    raise ValueError(f"{path.name}: non-finite value {cell!r}")
            rows += 1
    return {"header": header, "rows": rows}


def digest_outputs(op: Op, stdout: str, out_dir: Path) -> dict:
    """What the gate compares for one invocation; raises ValueError (or
    json/csv errors) when an artifact does not parse."""
    if op.kind == "verify":
        return {"checks": [name for name, _ in verify_lines(stdout)]}
    digest: dict = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            digest[path.name] = {"values": coefficient_values(json.loads(path.read_text()))}
        elif path.suffix == ".csv":
            digest[path.name] = csv_digest(path)
    return digest


# ---------------------------------------------------------------------------
# the gate


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["ops"]


def check_op(op: Op, rc, stdout: str, out_dir: Path, reference: dict) -> str | None:
    """None when the invocation passes the gate, else the failure reason.

    Reasons starting with "exit" or "exception" mark an invocation that
    produced no result; every other reason marks a wrong result."""
    if isinstance(rc, str):
        return f"exception {rc}"
    if rc == EXIT_CHECK_FAILED:  # the program's own check failed: a wrong result
        fails = [line for line in stdout.splitlines() if "FAIL" in line]
        return "check failed: " + "; ".join(" ".join(line.split()) for line in fails)
    if rc != 0:
        return f"exit {rc}"
    ref = reference.get(op.ref_key)
    if ref is None:
        return f"no reference for {op.ref_key}"
    try:
        if op.kind == "verify":
            lines = verify_lines(stdout)
            failed = [name for name, status in lines if status != "PASS"]
            if failed:
                return "FAIL line: " + ", ".join(failed)
            missing = set(ref["checks"]) - {name for name, _ in lines}
            if missing:
                return "missing checks: " + ", ".join(sorted(missing))
            return None
        got = digest_outputs(op, stdout, out_dir)
    except (ValueError, OSError, StopIteration, csv.Error) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    for name, want in ref["files"].items():
        have = got.get(name)
        if have is None:
            return f"missing artifact {name}"
        if "rows" in want:
            if have["rows"] != want["rows"] or have["header"][:2] != want["header"][:2]:
                return f"{name}: {have['rows']} rows, reference {want['rows']}"
            continue
        for key, ref_val in want["values"].items():
            val = have["values"].get(key)
            if val is None:
                return f"{name}: missing {key}"
            if not abs(val - ref_val) <= RTOL * abs(ref_val) + ATOL:
                return f"{name}: {key} = {val!r}, reference {ref_val!r}"
    return None
