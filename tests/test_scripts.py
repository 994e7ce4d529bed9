"""Smoke runs of the experiment scripts at small sizes: each must exit 0
without a traceback, under the suite's warning filters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(config, name, *args):
    # the suite's filterwarnings do not reach a subprocess: hand them over
    # as -W flags, which take the same action:message::category form
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *(f"-W{w}" for w in config.getini("filterwarnings")),
         str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "model, left_continuous", [("lazy", True), ("skewed", True), ("down2", False)]
)
def test_polyharmonic_report(pytestconfig, tmp_path, model, left_continuous):
    if model == "down2":  # upward jumps of one, a downward jump of two
        model = tmp_path / "down2.json"
        model.write_text(json.dumps({"atoms": {"-2": "1/4", "0": "1/4", "1": "1/2"}}))
    stdout = _script(pytestconfig, "polyharmonic_report.py",
                     "--model", model, "--x-max", 24, "--horizon", 512)
    assert ("left-continuous closed form vs ladder" in stdout) == left_continuous


def test_polyharmonic_report_judges_the_route_below_the_horizon_scale(pytestconfig):
    # as in verify: the horizon-2048 route is judged on x <= 2 sigma sqrt(N)
    # = 110 (skewed), where it passes, not on every x <= 200
    stdout = _script(pytestconfig, "polyharmonic_report.py",
                     "--model", "skewed", "--x-max", 200, "--horizon", 2048)
    route = next(line for line in stdout.splitlines() if line.startswith("V paper route"))
    assert "PASS" in route and " on x=0..110 at N=2048 " in route
