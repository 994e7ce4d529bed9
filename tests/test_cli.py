"""CLI surface: exit codes, artifact shapes, determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import cli, walk


def _run(argv):
    return cli.main(argv)


def test_verify_lazy_passes(tmp_path, capsys):
    rc = _run(["verify", "--model", "lazy", "--horizon", "256"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_PASS
    assert "FAIL" not in out and "PASS" in out


def test_expand_tau0_artifacts(tmp_path):
    rc = _run(
        ["expand", "tau0", "--model", "lazy", "--horizon", "256",
         "--out-dir", str(tmp_path)]
    )
    assert rc == cli.EXIT_PASS
    doc = json.loads((tmp_path / "coeffs.json").read_text())
    assert doc["nu"]["nu_1"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert "provenance" in doc["nu"]["nu_1"]
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0].startswith("n,dp,approx_1")
    assert len(lines) == 257


def test_oracle_rational_csv(tmp_path):
    rc = _run(
        ["oracle", "--model", "lazy", "--x", "1", "--horizon", "64",
         "--mode", "rational", "--out-dir", str(tmp_path)]
    )
    assert rc == cli.EXIT_PASS
    lines = (tmp_path / "oracle_tau1.csv").read_text().splitlines()
    assert lines[0] == "n,value,rational"
    assert lines[1].split(",")[2] == "1"  # P(tau_1 > 0) = 1 exactly


@pytest.mark.parametrize(
    "spec",
    [
        '{"atoms": {"-1": "0.45", "1": "0.45"}}',
        '{"atoms": {"-1": 0.5, "1": 0.5}, "tolerance": 0}',
        '{"atoms": {"-1": 0.5, "1": 0.5}, "tolerance": "x"}',
        '{"atoms": [["-1", "1/2"], ["1", "1/2"]]}',
        '{"atoms": {"-1": "1/0", "1": "1/2"}}',
    ],
    ids=["mass-sum", "zero-tolerance", "string-tolerance", "atoms-list", "zero-denominator"],
)
def test_malformed_model_exits_2(tmp_path, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(spec)
    assert _run(["verify", "--model", str(bad)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
def test_missing_model_exits_2(tmp_path, name):
    assert _run(["verify", "--model", str(tmp_path / name)]) == cli.EXIT_CONFIG


def test_tail_not_decayed_exits_1(tmp_path, capsys):
    model = tmp_path / "wide.json"
    model.write_text('{"atoms": {"-2": "1/2", "1": "1/4", "3": "1/4"}}')
    for target in ("local", "taux"):
        rc = _run(["expand", target, "--model", str(model), "--horizon", "64",
                   "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out.startswith("FAIL: ")


def test_leftcont_gate_follows_downward_jumps(tmp_path, capsys):
    # -2 is a downward jump of two: not left-continuous, whatever the upward jumps
    model = tmp_path / "down2.json"
    model.write_text('{"atoms": {"-2": "1/4", "0": "1/4", "1": "1/2"}}')
    assert _run(["verify", "--model", str(model), "--horizon", "256"]) == cli.EXIT_PASS
    assert "leftcont" not in capsys.readouterr().out
    # skewed jumps up by two and down by one: left-continuous
    assert _run(["verify", "--model", "skewed", "--horizon", "256"]) == cli.EXIT_PASS
    assert any(
        line.split()[:2] == ["leftcont", "PASS"] for line in capsys.readouterr().out.splitlines()
    )
    rc = _run(["expand", "taux", "--model", "skewed", "--horizon", "256",
               "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_PASS
    assert "V_leftcont" in json.loads((tmp_path / "taux_coeffs.json").read_text())


@st.composite
def _model_specs(draw):
    """Model JSON on [-3, 3]: mean zero and span 1 unless drawn otherwise,
    sometimes with one malformed atom."""
    kind = draw(st.sampled_from(["ok", "ok", "drift", "span2", "malformed"]))
    points = (-2, 2) if kind == "span2" else (-3, -2, -1, 1, 2, 3)
    w = {v: draw(st.integers(0, 4)) for v in points}
    for side in (-1, 1):
        if not any(w[v] for v in points if v * side > 0):
            w[side * min(abs(v) for v in points)] = 1
    left = sum(-v * c for v, c in w.items() if v < 0)
    right = sum(v * c for v, c in w.items() if v > 0)
    weights = {v: c * (right if v < 0 else left) for v, c in w.items() if c}
    weights[0] = draw(st.integers(0, 4)) * (left + right)
    if kind == "drift":
        weights[max(weights)] += 1
    total = sum(weights.values())
    atoms = {str(v): f"{c}/{total}" for v, c in weights.items() if c}
    if kind == "malformed":
        atoms[draw(st.sampled_from(sorted(atoms)))] = draw(
            st.sampled_from(["1/0", "x", -1, float("inf")])
        )
    return {"atoms": atoms}


@settings(max_examples=100, deadline=None)
@given(spec=_model_specs())
def test_exit_codes_random_models(tmp_path_factory, spec):
    # every model file ends in an exit code, never in a traceback
    out = tmp_path_factory.mktemp("fuzz")
    model = out / "model.json"
    model.write_text(json.dumps(spec))
    common = ["--model", str(model), "--horizon", "64"]
    for argv in (
        ["verify"] + common,
        ["expand", "tau0", "--out-dir", str(out)] + common,
        ["expand", "taux", "--x-max", "4", "--out-dir", str(out)] + common,
    ):
        assert _run(argv) in {0, 1, 2, 3}


def test_low_horizon_exits_2():
    assert _run(["expand", "tau0", "--model", "lazy", "--horizon", "32"]) == cli.EXIT_CONFIG


def test_oversized_table_exits_3(tmp_path):
    # refused before the (N+1) x (x_max+1) tables are allocated
    rc = _run(
        ["expand", "local", "--model", "lazy", "--x-max", "100000000",
         "--horizon", "64", "--out-dir", str(tmp_path)]
    )
    assert rc == cli.EXIT_RESOURCE


def test_verify_reports_check_horizons(capsys):
    rc = _run(["verify", "--model", "lazy", "--horizon", "300"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_PASS
    for line in lines:
        if line.startswith(("duality(", "leftcont")):
            assert line.endswith("at N=256")
        if line.startswith(("spitzer(rational)", "spitzer(float)")):
            assert line.endswith("at N=300")
    assert sum("at N=" in line for line in lines) == 6


def test_determinism(tmp_path):
    for d in ("a", "b"):
        _run(
            ["expand", "tau0", "--model", "lazy", "--horizon", "128",
             "--out-dir", str(tmp_path / d)]
        )
    for name in ("coeffs.json", "errors.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


@pytest.mark.parametrize("target", ["tau0", "local", "taux"])
def test_artifacts_name_the_law_not_the_path(tmp_path, target):
    # a builtin name and the same atoms read from two directories write
    # the same bytes: artifacts record the law's canonical atoms
    specs = ["lazy"]
    for d in ("one", "two/deeper"):
        model = tmp_path / d / "law.json"
        model.parent.mkdir(parents=True)
        model.write_text(json.dumps({"atoms": {"1": "1/4", "0": "0.5", "-1": "1/4"}}))
        specs.append(str(model))
    outs = []
    for i, spec in enumerate(specs):
        out = tmp_path / f"out{i}"
        argv = ["expand", target, "--model", spec, "--horizon", "128", "--out-dir", str(out)]
        assert _run(argv + (["--x-max", "4"] if target != "tau0" else [])) == cli.EXIT_PASS
        outs.append(sorted(p.read_bytes() for p in out.glob("*.json")))
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(next((tmp_path / "out1").glob("*.json")).read_text())
    assert walk.law_from_json(doc["model"]) == walk.lazy_walk()


def test_verify_smallest_horizon_fits_the_decay_ladder(capsys):
    """At --horizon 64 the tau0 decay exponents come from a 32-point window."""
    rc = _run(["verify", "--model", "skewed", "--horizon", "64"])
    lines = capsys.readouterr().out.splitlines()
    ladder = [line for line in lines if line.startswith("tau0 ladder")]
    assert rc == cli.EXIT_PASS
    assert len(ladder) == 3
    assert all("PASS" in line and "decay exponent" in line for line in ladder)
