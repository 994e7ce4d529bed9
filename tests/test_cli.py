"""CLI surface: exit codes, artifact shapes, determinism."""

import json

import pytest

from fluctuator import cli


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
    ],
    ids=["mass-sum", "zero-tolerance", "string-tolerance", "atoms-list"],
)
def test_malformed_model_exits_2(tmp_path, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(spec)
    assert _run(["verify", "--model", str(bad)]) == cli.EXIT_CONFIG


def test_missing_model_exits_2(tmp_path):
    assert _run(["verify", "--model", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG


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
