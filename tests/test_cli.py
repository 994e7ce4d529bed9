"""CLI surface: exit codes, artifact shapes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import cli, conditioned, oracle, polyharmonic, tau0, walk

from test_conditioned import DOUBLE
from test_polyharmonic import up_law

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # theta_1, theta_2 come from the Edgeworth polynomials at zero
    assert doc["nu"]["nu_1"]["provenance"] == "dp+analytic"
    assert doc["psi"]["theta1"]["provenance"] == "analytic"
    # each nu's error is its gap to the closed form, where lazy has
    # nu = (1/2, 0, 0): nu_2 and nu_3 estimate their own size
    for ell in (2, 3):
        nu = doc["nu"][f"nu_{ell}"]
        assert nu["error_estimate"] == abs(nu["value"])
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0].startswith("n,dp,approx_1")
    assert len(lines) == 257


def test_expand_tau0_error_is_the_gap_to_the_closed_form(tmp_path):
    # p03v2's paper-route nu_3 at N = 2048 is about 6e-7 off its 40-digit
    # value; a second exponentiation of the same psi scalars would not see it
    model = tmp_path / "p03v2.json"
    model.write_text(json.dumps({"atoms": {"-1": "24/65", "0": "2/5", "1": "6/65", "2": "9/65"}}))
    argv = ["expand", "tau0", "--model", str(model), "--horizon", "2048", "--out-dir", str(tmp_path)]
    assert _run(argv) == cli.EXIT_PASS
    nu3 = json.loads((tmp_path / "coeffs.json").read_text())["nu"]["nu_3"]
    gap = abs(nu3["value"] - 0.001651754063937532)
    assert nu3["error_estimate"] == pytest.approx(gap, rel=0, abs=1e-12)


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
    # P(X = 1) = P(X = -1) = 2^-70: at N = 64 the psi tail closure of the
    # tau0 pipeline cannot extrapolate
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps(_TINY_STEPS))
    rc = _run(["expand", "tau0", "--model", str(model), "--horizon", "64",
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


def test_taux_takes_a_low_horizon(tmp_path):
    # expand taux sweeps nothing, so it does not bound the --horizon it never reads
    rc = _run(["expand", "taux", "--model", "lazy", "--horizon", "32", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_PASS
    assert (tmp_path / "taux_coeffs.json").exists()


def test_oversized_table_exits_3(tmp_path):
    # refused before the (N+1) x (x_max+1) tables are allocated
    rc = _run(
        ["expand", "local", "--model", "lazy", "--x-max", "100000000",
         "--horizon", "64", "--out-dir", str(tmp_path)]
    )
    assert rc == cli.EXIT_RESOURCE


def test_oversized_sweep_exits_3_before_sweeping(tmp_path):
    # frame widths follow from the support: a 300000-step sweep is refused
    # before its first step, not once a frame has outgrown the cap
    t0 = time.perf_counter()
    rc = _run(
        ["expand", "tau0", "--model", "lazy", "--horizon", "300000",
         "--out-dir", str(tmp_path)]
    )
    assert rc == cli.EXIT_RESOURCE
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize(
    "argv, want",
    [(["oracle", "--mode", "float"], cli.EXIT_RESOURCE),
     (["oracle", "--mode", "rational"], cli.EXIT_RESOURCE),
     (["expand", "tau0"], cli.EXIT_RESOURCE), (["expand", "local"], cli.EXIT_RESOURCE),
     (["expand", "taux"], cli.EXIT_PASS),
     (["verify"], cli.EXIT_RESOURCE), (["verify", "--check-polyharmonic"], cli.EXIT_RESOURCE)],
    ids=["oracle-float", "oracle-rational", "tau0", "local", "taux", "verify", "verify-ph"],
)
def test_oversized_horizon_exits_3_before_allocating(tmp_path, capsys, argv, want):
    # a 10^12-step sweep would need 8 TB for its N + 1 sums alone: every
    # subcommand that sweeps refuses it before allocating anything;
    # `expand taux` sweeps nothing and writes its closed form at once
    t0 = time.perf_counter()
    rc = _run(argv + ["--model", "lazy", "--horizon", str(10**12), "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == want and "Traceback" not in out + err
    if want == cli.EXIT_PASS:
        assert time.perf_counter() - t0 < 1.0
        assert (tmp_path / "taux_coeffs.json").is_file()
    else:
        assert err.startswith("resource cap: ")


def test_taux_x_max_cap_exits_3_before_root_finding(tmp_path, monkeypatch, capsys):
    # the ladder's states are known from --x-max and the support: an
    # oversized ladder is refused before its roots, series or JSON exist
    def roots(law):
        raise AssertionError("ladder_roots ran")

    monkeypatch.setattr(oracle, "ladder_roots", roots)
    for extra in ([], ["--check-polyharmonic"]):
        argv = ["expand", "taux", "--model", "skewed", "--x-max", "100000000"]
        assert _run(argv + extra + ["--out-dir", str(tmp_path)]) == cli.EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("resource cap: ")
    assert list(tmp_path.iterdir()) == []


def test_local_x_max_cap_exits_3_before_root_finding(tmp_path, monkeypatch, capsys):
    # the closed form's ladder is refused before its roots, and so before
    # the DP table is swept
    def refuse(*args, **kwargs):
        raise AssertionError("ran")

    monkeypatch.setattr(oracle, "ladder_roots", refuse)
    monkeypatch.setattr(oracle, "conditioned_table", refuse)
    argv = ["expand", "local", "--model", "skewed", "--x-max", "100000", "--horizon", "64"]
    assert _run(argv + ["--out-dir", str(tmp_path)]) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("resource cap: ")
    assert list(tmp_path.iterdir()) == []


def test_local_row_cap_exits_3_before_the_closed_form(tmp_path, monkeypatch, capsys):
    # local_errors.csv has x_max rows per grid point: 20000 x 33 at horizon
    # 64 is refused before U or the DP table exist, while the README and
    # benchmark sizes (x-max 20 and 10) reach the DP table
    class Swept(Exception):
        pass

    def refuse(*args, **kwargs):
        raise AssertionError("ran")

    def sweep(*args, **kwargs):
        raise Swept

    monkeypatch.setattr(polyharmonic, "u_wiener_hopf", refuse)
    monkeypatch.setattr(oracle, "conditioned_table", refuse)
    argv = ["expand", "local", "--model", "skewed", "--x-max", "20000", "--horizon", "64"]
    assert _run(argv + ["--out-dir", str(tmp_path)]) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("resource cap: 660000 error rows")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "conditioned_table", sweep)
    for x_max in ("20", "10"):
        with pytest.raises(Swept):
            _run(["expand", "local", "--model", "skewed", "--x-max", x_max,
                  "--out-dir", str(tmp_path)])


def test_verify_x_max_cap_exits_3_before_the_suite(monkeypatch, capsys):
    # the paper route's q ladder is quadratic in --x-max: past the cap,
    # verify --check-polyharmonic is refused before the identity suite
    # sweeps, while the default x-max 15 and the cap itself are run
    class Ran(Exception):
        pass

    def ran(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(oracle, "identity_suite", ran)
    monkeypatch.setattr(conditioned, "q_ladder", ran)
    argv = ["verify", "--model", "skewed", "--horizon", "64", "--check-polyharmonic"]
    assert _run(argv + ["--x-max", str(cli.VERIFY_X_MAX_CAP + 1)]) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("resource cap: ")
    for extra in ([], ["--x-max", str(cli.VERIFY_X_MAX_CAP)]):
        with pytest.raises(Ran):
            _run(argv + extra)


def test_ladder_state_cap_admits_its_last_state(skewed):
    # skewed jumps down by 1 and up by 2: x_max + 1 states for V, x_max + 2
    # for U; 40000 states fit well inside
    cap = polyharmonic.LADDER_STATE_CAP
    assert cap > polyharmonic.ladder_reach(skewed, 40000, 2) + 1
    assert polyharmonic.v_wiener_hopf(skewed, cap - 1, 1).shape == (1, cap)
    assert polyharmonic.u_wiener_hopf(skewed, cap - 2, 1).shape == (1, cap - 1)
    for ladder, x_max in ((polyharmonic.v_wiener_hopf, cap), (polyharmonic.u_wiener_hopf, cap - 1)):
        with pytest.raises(oracle.ResourceCapExceeded, match=f"{cap + 1} states exceeds cap"):
            ladder(skewed, x_max, 1)


def test_wide_downward_law_gets_its_closed_form(tmp_path):
    # down_80 has 79 roots inside the unit circle: the paper route's nu_1
    # agrees with the closed form, and the closed form passes its
    # hierarchy check
    model = tmp_path / "down80.json"
    model.write_text(json.dumps(walk.law_to_json(up_law(80).reverse())))
    common = ["--model", str(model), "--out-dir", str(tmp_path)]
    assert _run(["expand", "tau0", "--horizon", "2048"] + common) == cli.EXIT_PASS
    nu_1 = json.loads((tmp_path / "coeffs.json").read_text())["nu"]["nu_1"]
    assert nu_1["error_estimate"] < 1e-10
    argv = ["expand", "taux", "--x-max", "5", "--check-polyharmonic"]
    assert _run(argv + common) == cli.EXIT_PASS


def test_heavy_hold_law_writes_a_finite_renewal_function(tmp_path):
    # P(X = 1) = P(X = -1) = 2^-70: the escape mass 1 - F[0] = 2^-70 of the
    # ladder height comes off the roots, not from F[0], which rounds to 1.0;
    # the renewal function is lazy's, V(x) = max(x, 1)
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps(_TINY_STEPS))
    docs = []
    for spec in (str(model), "lazy"):
        out = tmp_path / f"out{len(docs)}"
        argv = ["expand", "local", "--model", spec, "--horizon", "64", "--x-max", "6"]
        assert _run(argv + ["--out-dir", str(out)]) == cli.EXIT_PASS
        docs.append(json.loads((out / "local_coeffs.json").read_text())["V"])
    assert docs[0] == docs[1]
    assert [docs[0][str(x)]["value"] for x in range(7)] == [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def _fresh_process(argv, cwd) -> tuple[int, str]:
    run = subprocess.run([sys.executable, "-m", "fluctuator.cli", *argv], cwd=cwd,
                         env=_src_env(), capture_output=True, text=True, timeout=120)
    return run.returncode, run.stdout


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # any import of it raises ImportError
import fluctuator.cli as cli
for argv in {argvs!r}:
    assert cli.main(argv + ["--out-dir", "."]) == cli.EXIT_PASS, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_every_command_runs_without_mpmath(tmp_path):
    # numpy is the package's only runtime dependency; mpmath serves the tests.
    # No command loads numpy.ma either (about 1.2 MB a process; np.unique
    # imports it): each command is checked right after it runs
    argvs = [["expand", "tau0", "--model", "skewed", "--horizon", "256"],
             ["expand", "local", "--model", "skewed", "--horizon", "256", "--x-max", "4"],
             ["expand", "taux", "--model", "skewed", "--x-max", "6", "--check-polyharmonic"],
             ["oracle", "--model", "skewed", "--x", "2", "--horizon", "64", "--mode", "rational"],
             ["oracle", "--model", "skewed", "--x", "2", "--horizon", "256", "--mode", "float"],
             ["verify", "--model", "skewed", "--horizon", "2048", "--check-polyharmonic"]]
    run = subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH.format(argvs=argvs)],
                         cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "first, second",
    [(["expand", "taux", "--model", "skewed", "--x-max", "5", "--check-polyharmonic",
       "--terms", "1"],
      ["expand", "taux", "--model", "skewed"]),
     (["verify", "--model", "lazy", "--horizon", "64", "--x-max", "3", "--check-polyharmonic"],
      ["verify", "--model", "lazy", "--horizon", "64"])],
    ids=["taux", "verify"],
)
def test_one_parser_per_process_carries_no_options(tmp_path, monkeypatch, capsys, first, second):
    # main reuses one parser: options set by a call are not the next call's
    # defaults, so the second call writes what a fresh process writes
    assert cli.build_parser() is not cli.build_parser()
    here, fresh = tmp_path / "in-process", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    cli.main(first + ["--out-dir", "first"])
    capsys.readouterr()
    rc = cli.main(second)
    assert (rc, capsys.readouterr().out) == _fresh_process(second, fresh)
    written = sorted(p.name for p in fresh.iterdir())
    assert written == sorted(p.name for p in here.iterdir() if p.name != "first")
    for name in written:
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


def _wide_model(tmp_path) -> str:
    """Uniform on [-514, 514]: the ladder quotient has degree 1026, past the
    root-finding cap."""
    k = 514
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({"atoms": {str(v): f"1/{2 * k + 1}" for v in range(-k, k + 1)}}))
    return str(model)


def test_expand_local_sweeps_only_the_killed_table(tmp_path, monkeypatch):
    # U and V are closed forms; the one sweep is the DP check of local_errors.csv
    from fluctuator import conditioned, edgeworth

    calls = []
    for mod, name in ((oracle, "conditioned_table"), (oracle, "delta_table"),
                      (edgeworth, "theta_polys"), (conditioned, "psi_x")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    argv = ["expand", "local", "--model", "skewed", "--horizon", "256", "--x-max", "4",
            "--out-dir", str(tmp_path)]
    assert _run(argv) == cli.EXIT_PASS
    assert calls == ["conditioned_table"]
    doc = json.loads((tmp_path / "local_coeffs.json").read_text())
    provenances = {v["provenance"] for block in doc["U"].values() for v in block.values()}
    assert provenances == {v["provenance"] for v in doc["V"].values()} == {"wiener-hopf"}


def test_wide_law_exits_3_before_root_finding(tmp_path, capsys):
    # the 64-step sweep runs, np.roots does not
    model = _wide_model(tmp_path)
    t0 = time.perf_counter()
    rc = _run(["expand", "local", "--model", str(model), "--horizon", "64", "--x-max", "1",
               "--terms", "1", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_RESOURCE
    assert "degree 1026 exceeds cap" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0


def test_expand_tau0_refuses_a_wide_law_before_sweeping(tmp_path, monkeypatch, capsys):
    # the closed form that gauges nu comes first, so the cap refuses the law
    # before the free sweep, as in expand taux
    calls = _count_sweeps(monkeypatch)
    argv = ["expand", "tau0", "--model", _wide_model(tmp_path), "--horizon", "64",
            "--out-dir", str(tmp_path)]
    assert _run(argv) == cli.EXIT_RESOURCE
    assert calls == []
    assert "degree 1026 exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    ["lazy", "skewed", {"atoms": {"-2": "1/4", "0": "1/4", "1": "1/2"}}],
    ids=["lazy", "skewed", "down2"],
)
def test_verify_sweeps_each_walk_once(tmp_path, monkeypatch, spec):
    # one residue pass over the free walk, T_0..T_3 and the reversed walk;
    # float sweeps of the free walk and of T_0: 3 sweeps, left-continuous
    # or not
    if isinstance(spec, dict):
        model = tmp_path / "law.json"
        model.write_text(json.dumps(spec))
        spec = str(model)
    calls = _count_sweeps(monkeypatch)
    assert _run(["verify", "--model", spec, "--horizon", "64"]) == cli.EXIT_PASS
    assert len(calls) == 3


def _count_sweeps(monkeypatch) -> list:
    """Record the name of each sweep: a per-step sweep of the free float
    walk, `oracle._sweep_float`, or of the exact walk, `oracle._sweep_exact`,
    a k-step block sweep of the float killed walk, `oracle._killed_float`,
    or the residue pass of `identity_suite`, `oracle._residue_reads`."""
    calls = []

    def counting(name, sweep):
        def counted(*args, **kwargs):
            calls.append(name)
            return sweep(*args, **kwargs)
        return counted

    for name in ("_sweep_float", "_sweep_exact", "_killed_float", "_residue_reads"):
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    return calls


@pytest.mark.parametrize("model", ["lazy", "skewed"])
def test_verify_certifies_from_the_suites_free_sweep(monkeypatch, model):
    # the polyharmonic certification reads the suite's float free sweep:
    # no sweep beyond the suite's 3
    calls = _count_sweeps(monkeypatch)
    argv = ["verify", "--model", model, "--horizon", "256", "--check-polyharmonic"]
    assert _run(argv) == cli.EXIT_PASS
    assert len(calls) == 3


def test_expand_tau0_sweeps_the_free_and_the_killed_walk_once(tmp_path, monkeypatch):
    # Delta_n for the coefficients, P(tau_0 > n) for errors.csv
    calls = _count_sweeps(monkeypatch)
    argv = ["expand", "tau0", "--model", "skewed", "--horizon", "256", "--out-dir", str(tmp_path)]
    assert _run(argv) == cli.EXIT_PASS
    assert sorted(calls) == ["_killed_float", "_sweep_float"]


@pytest.mark.parametrize("extra", [[], ["--check-polyharmonic"]], ids=["plain", "certified"])
def test_expand_taux_sweeps_nothing(tmp_path, monkeypatch, extra):
    # V and nu come from the Wiener-Hopf roots, certified or not
    calls = _count_sweeps(monkeypatch)
    argv = ["expand", "taux", "--model", "skewed", "--out-dir", str(tmp_path)] + extra
    assert _run(argv) == cli.EXIT_PASS
    assert calls == []
    doc = json.loads((tmp_path / "taux_coeffs.json").read_text())
    assert "horizon" not in doc
    assert {v["provenance"] for v in doc["V"]["V_2"].values()} == {"wiener-hopf"}


def test_verify_reports_the_paper_route_gap(capsys, monkeypatch):
    # the duality V ladder and the weak q ladder at N = 64 each miss lazy's
    # closed form by 2.9e-3 on x <= 2 sigma sqrt(N) = 11 (by 1.2e-2 on all
    # of x <= 15): they pass the 1e-2 limit, and fail a 1e-3 one while the
    # closed form itself certifies
    argv = ["verify", "--model", "lazy", "--horizon", "64", "--check-polyharmonic"]
    assert _run(argv) == cli.EXIT_PASS
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "PASS  relative gap 2.887e-03 on x=0..11 at N=64")
    monkeypatch.setattr(polyharmonic, "ROUTE_GAP_TOL", 1e-3)
    assert _run(argv) == cli.EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if "FAIL" in line] == [
        ["V", "paper", "route"], ["U", "paper", "route"]]
    assert lines[-1].startswith("U paper route") and lines[-1].endswith("at N=64")
    assert _run(argv[:4] + ["2048", "--check-polyharmonic"]) == cli.EXIT_PASS


def test_verify_judges_the_paper_route_below_the_horizon_scale(capsys):
    # the horizon-N route drifts from the closed form as x grows against
    # sqrt(N): its gap is judged on x <= 2 sigma sqrt(N) = 110 (skewed,
    # N = 2048), while the certification reads every x <= 200
    argv = ["verify", "--model", "skewed", "--horizon", "2048", "--x-max", "200",
            "--check-polyharmonic"]
    assert _run(argv) == cli.EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    routes = [ln for ln in lines if "paper route" in ln]
    assert len(routes) == 2
    assert all(ln.endswith(" on x=0..110 at N=2048") for ln in routes)


_TINY_STEPS = {"atoms": {  # P(X = 1) = P(X = -1) = 2^-70
    "-1": "1/1180591620717411303424",
    "0": "590295810358705651711/590295810358705651712",
    "1": "1/1180591620717411303424",
}}


@pytest.mark.parametrize("spec", ["lazy", "skewed", _TINY_STEPS], ids=["lazy", "skewed", "tiny"])
def test_verify_computes_the_tau0_coefficients_once(tmp_path, monkeypatch, capsys, spec):
    # the decay ladder and the certification share one tau0_coeffs call;
    # on the tiny-step law its one TailNotDecayed fails both
    if isinstance(spec, dict):
        model = tmp_path / "law.json"
        model.write_text(json.dumps(spec))
        spec = str(model)
    tau0_coeffs, calls = tau0.tau0_coeffs, []

    def counted(*args, **kwargs):
        calls.append(args)
        return tau0_coeffs(*args, **kwargs)

    monkeypatch.setattr(tau0, "tau0_coeffs", counted)
    argv = ["verify", "--model", spec, "--horizon", "64", "--x-max", "2", "--check-polyharmonic"]
    rc = _run(argv)
    assert len(calls) == 1
    if spec.endswith(".json"):
        lines = capsys.readouterr().out.splitlines()
        assert rc == cli.EXIT_CHECK_FAILED
        assert [line.split()[:2] for line in lines if "FAIL" in line] == [
            ["tau0", "ladder"], ["polyharmonic", "FAIL"]]
    else:
        assert rc == cli.EXIT_PASS


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "local", "--x-max", "-1"],
        ["expand", "taux", "--x-max", "-3"],
        ["expand", "taux", "--x-max", "0", "--check-polyharmonic"],
        ["verify", "--x-max", "0", "--check-polyharmonic"],
    ],
    ids=["local-negative", "taux-negative", "taux-certify-zero", "verify-certify-zero"],
)
def test_bad_x_max_exits_2(tmp_path, capsys, argv):
    rc = _run(argv + ["--model", "lazy", "--horizon", "64", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert "Traceback" not in err and "x-max" in err


_SPAN2 = {"atoms": {"-2": "1/2", "2": "1/2"}}
_DRIFT = {"atoms": {"-1": "1/4", "1": "3/4"}}


@pytest.mark.parametrize(
    "argv, model, want",
    [
        (["oracle", "--horizon", str(10**12)], "lazy", cli.EXIT_RESOURCE),
        (["expand", "taux", "--x-max", "65600"], "skewed", cli.EXIT_RESOURCE),
        (["expand", "taux", "--x-max", "0", "--check-polyharmonic"], "lazy", cli.EXIT_CONFIG),
        *((["expand", target, "--horizon", "64"], spec, cli.EXIT_CONFIG)
          for target in ("tau0", "local", "taux") for spec in (_SPAN2, _DRIFT)),
        *((["verify", "--horizon", "4096"], spec, cli.EXIT_CONFIG) for spec in (_SPAN2, _DRIFT)),
    ],
    ids=["oracle-oversized", "taux-oversized", "taux-certify-zero",
         "tau0-span2", "tau0-drift", "local-span2", "local-drift", "taux-span2", "taux-drift",
         "verify-span2", "verify-drift"],
)
def test_a_refused_request_makes_no_directory(tmp_path, monkeypatch, argv, model, want):
    # --out-dir is made by the first artifact written, not before the checks;
    # a configuration error is found before anything sweeps
    if isinstance(model, dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        model = str(path)
    out = tmp_path / "out"
    calls = _count_sweeps(monkeypatch)
    assert _run(argv + ["--model", model, "--out-dir", str(out)]) == want
    assert not out.exists()
    if want == cli.EXIT_CONFIG:
        assert calls == []


def test_verify_reports_check_horizons(capsys):
    rc = _run(["verify", "--model", "lazy", "--horizon", "300"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_PASS
    # every exact check at the full horizon, with its primes and false-pass bound
    bound = "at N=300, 3 primes, false pass <= (floor(611/23)/504756)^3 = 1.4e-13"
    for line in lines:
        if line.startswith(("spitzer(rational)", "duality(", "leftcont")):
            assert line.endswith("PASS  residual 0 " + bound)
        if line.startswith("spitzer(float)"):
            assert line.endswith("at N=300")
        if line.startswith("tau0 ladder"):
            assert line.endswith(" on n=64..300")
    assert sum("at N=300" in line for line in lines) == 6


def test_verify_runs_every_exact_check_at_2048(capsys):
    t0 = time.perf_counter()
    rc = _run(["verify", "--model", "skewed", "--horizon", "2048"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_PASS
    exact = [ln for ln in lines if ln.startswith(("spitzer(rational)", "duality(", "leftcont"))]
    assert len(exact) == 5 and all("residual 0 at N=2048, 3 primes" in ln for ln in exact)
    assert elapsed < 2.0


def _csv_writer_bytes(header, rows) -> bytes:
    """The reference bytes of a CSV artifact: csv.writer on the fields, each
    float as f"{x:.17g}"."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def test_errors_csv_is_the_csv_writer_file(tmp_path):
    # every CSV artifact is written with one printf format per row; its
    # bytes are those of csv.writer on the 17-digit fields
    from fluctuator import conditioned, polyharmonic

    N, x_max = 256, 3
    law = walk.skewed_walk()
    assert _run(["expand", "tau0", "--model", "skewed", "--horizon", str(N),
                 "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    coeffs = tau0.tau0_coeffs(law, oracle.delta_table(law, N)[0])
    truth = oracle.tau_tail(law, 0, N, mode="float")
    approx = [tau0.evaluate_tau0(coeffs, N, t) for t in (1, 2, 3)]
    rows = [[n, truth[n], *(a[n] for a in approx), *(abs(truth[n] - a[n]) for a in approx)]
            for n in range(1, N + 1)]
    header = ["n", "dp", "approx_1", "approx_2", "approx_3", "err_1", "err_2", "err_3"]
    assert (tmp_path / "errors.csv").read_bytes() == _csv_writer_bytes(header, rows)

    for mode in ("rational", "float"):
        out = tmp_path / mode
        assert _run(["oracle", "--model", "skewed", "--x", "2", "--horizon", str(N),
                     "--mode", mode, "--out-dir", str(out)]) == cli.EXIT_PASS
        tail = oracle.tau_tail(law, 2, N, mode=mode)
        if mode == "rational":
            want = _csv_writer_bytes(["n", "value", "rational"],
                                     [[n, float(v), str(v)] for n, v in enumerate(tail)])
        else:
            want = _csv_writer_bytes(["n", "value"], enumerate(tail))
        assert (out / "oracle_tau2.csv").read_bytes() == want

    out = tmp_path / "local"
    assert _run(["expand", "local", "--model", "skewed", "--horizon", str(N), "--x-max",
                 str(x_max), "--out-dir", str(out)]) == cli.EXIT_PASS
    table = oracle.conditioned_table(law, N, x_max, strict=False)
    U = polyharmonic.u_wiener_hopf(law, x_max, 2)
    n_grid = np.unique(np.geomspace(32, N, 60).astype(int))
    rows = []
    for x in range(1, x_max + 1):
        res = conditioned.u_expansion_eval(table, U, x, n_grid, J=2)
        rows += zip(n_grid, [x] * n_grid.size, res["truth"], res["approx"], res["error"])
    want = _csv_writer_bytes(["n", "x", "dp", "approx", "err"], rows)
    assert (out / "local_errors.csv").read_bytes() == want


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


@pytest.mark.parametrize("argv", [
    ["tau0"], ["local", "--x-max", "4"], ["taux", "--x-max", "4", "--check-polyharmonic"]])
def test_json_artifacts_are_one_sorted_line(tmp_path, argv):
    # the C encoder's compact form: keys sorted, floats by repr, one line
    out = tmp_path / "out"
    assert _run(["expand", *argv, "--model", "skewed", "--horizon", "128",
                 "--out-dir", str(out)]) == cli.EXIT_PASS
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


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


def test_taux_and_verify_certify_alike(tmp_path, capsys):
    # one certification: the same V_1 defect and V_2 lines in both reports
    common = ["--model", "skewed", "--horizon", "512", "--x-max", "12", "--check-polyharmonic"]
    assert _run(["expand", "taux", "--out-dir", str(tmp_path)] + common) == cli.EXIT_PASS
    checks = json.loads((tmp_path / "taux_coeffs.json").read_text())["polyharmonic_checks"]
    capsys.readouterr()
    assert _run(["verify"] + common) == cli.EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    for name, key, measure in (
        ("polyharmonic V1", "harmonic_defect_V1", "relative defect"),
        ("polyharmonic V2 identity", "v2_identity_residual", "relative residual"),
        ("polyharmonic V2 (P-I)^2", "biharmonic_defect_V2_rel", "relative defect"),
    ):
        line = next(ln for ln in lines if ln.startswith(name + " "))
        assert line.endswith(f"PASS  {measure} {checks[key]['value']:.3e}")


@pytest.mark.parametrize("model", ["lazy", "skewed", "double"])
def test_taux_nu_is_v_at_zero(tmp_path, model):
    # nu_j is read off the ladder: each nu_j written is V_j(0), the same
    # float, sign of zero included
    if model == "double":
        model = tmp_path / "double.json"
        model.write_text(json.dumps(walk.law_to_json(DOUBLE)))
    argv = ["expand", "taux", "--model", str(model), "--x-max", "12", "--check-polyharmonic",
            "--out-dir", str(tmp_path)]
    assert _run(argv) == cli.EXIT_PASS
    doc = json.loads((tmp_path / "taux_coeffs.json").read_text())
    assert len(doc["nu"]) == 2
    for j in (1, 2):
        nu, v0 = doc["nu"][f"nu_{j}"]["value"], doc["V"][f"V_{j}"]["0"]["value"]
        assert float(nu).hex() == float(v0).hex(), (j, nu, v0)


def test_verify_reports_the_exact_checks_when_certification_fails(tmp_path, capsys):
    # P(X = 1) = P(X = -1) = 2^-70: at N = 64 the psi tail closure cannot
    # extrapolate, so the tau0 ladder and the certification fail, and the
    # polyharmonic report still carries every line of plain verify
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps(_TINY_STEPS))
    argv = ["verify", "--model", str(model), "--horizon", "64", "--x-max", "2"]
    assert _run(argv) == cli.EXIT_CHECK_FAILED
    plain = capsys.readouterr().out.splitlines()
    assert _run(argv + ["--check-polyharmonic"]) == cli.EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert len(plain) == 7 and lines[:-1] == plain
    assert sum("PASS" in line for line in plain) == 6
    assert lines[-1].split()[:2] == ["polyharmonic", "FAIL"]
    assert "remainder decay exponent" in lines[-1]


def test_verify_smallest_horizon_fits_the_decay_ladder(capsys):
    """At --horizon 64 the tau0 decay exponents come from a 32-point window."""
    rc = _run(["verify", "--model", "skewed", "--horizon", "64"])
    lines = capsys.readouterr().out.splitlines()
    ladder = [line for line in lines if line.startswith("tau0 ladder")]
    assert rc == cli.EXIT_PASS
    assert len(ladder) == 3
    assert all("PASS" in line and "decay exponent" in line for line in ladder)
