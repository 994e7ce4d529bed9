"""Batch front door: model ingestion, pipeline orchestration, report emission.

Subcommands
    oracle        exact/float DP tables (tau tails, deltas) as CSV
    expand tau0   nu_1..nu_3 coefficients + per-n error table
    expand local  U_j(x) ladder for the conditioned local probabilities
    expand taux   V_j(x) ladder (+ optional polyharmonic certification)
    verify        identity suite: spitzer, duality, leftcont, ladders

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 resource cap exceeded.  Outputs are deterministic for a fixed config:
JSON keys are sorted, floats printed via repr, CSV decimals at 17
significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import conditioned, oracle, polyharmonic, tau0
from .oracle import ResourceCapExceeded, TailNotDecayed
from .walk import LatticeLaw, LawError, law_from_json, law_to_json, lazy_walk, skewed_walk

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
LOCAL_ROW_CAP = 500_000  # rows of local_errors.csv: about 25 MB, as at LADDER_STATE_CAP
VERIFY_X_MAX_CAP = 1000  # verify --check-polyharmonic: its q ladder is quadratic, ~3.5 s at 1000

_BUILTIN_MODELS = {"lazy": lazy_walk, "skewed": skewed_walk}


class ConfigError(Exception):
    pass


def load_model(spec: str) -> LatticeLaw:
    """A builtin law by name (lazy, skewed) or a JSON model file."""
    if spec in _BUILTIN_MODELS:
        return _BUILTIN_MODELS[spec]()
    if not Path(spec).is_file():
        raise ConfigError(f"model file not found: {spec}")
    return law_from_json(spec)


def _num(value: float, provenance: str, error: float | None = None) -> dict:
    """Annotated numeric for JSON output."""
    out = {"value": float(value), "provenance": provenance}
    if error is not None:
        out["error_estimate"] = float(error)
    return out


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: list[str], line: str, rows) -> None:
    """A CSV file: the header, then `line % row` for each row.  line is a
    printf format of the row's fields ending in \\r\\n, with floats as %.17g:
    the bytes of csv.writer, since numbers never need quoting.  rows may
    be a generator: each row is formatted and written as it comes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_oracle(args) -> int:
    law = load_model(args.model)
    out_dir = Path(args.out_dir)
    x = args.x
    tail = oracle.tau_tail(law, x, args.horizon, mode=args.mode)
    path = out_dir / f"oracle_tau{x}.csv"
    if args.mode == "rational":
        rows = ((n, float(v), v) for n, v in enumerate(tail))
        _write_rows(path, ["n", "value", "rational"], "%d,%.17g,%s\r\n", rows)
    else:
        _write_rows(path, ["n", "value"], "%d,%.17g\r\n", enumerate(tail.tolist()))
    print(f"wrote {path}")
    return EXIT_PASS


def _cmd_expand_tau0(args) -> int:
    law = load_model(args.model)
    out_dir = Path(args.out_dir)
    # the paper route is gauged by the closed form, found before the sweep
    exact = polyharmonic.v_wiener_hopf(law, 0, 3).nu
    coeffs = tau0.tau0_coeffs(law, N=args.horizon)
    doc = {
        "model": law_to_json(law),
        "horizon": args.horizon,
        "nu": {
            f"nu_{ell}": _num(nu, "dp+analytic", abs(nu - nu_exact))
            for ell, nu, nu_exact in zip((1, 2, 3), coeffs.nu, exact)
        },
        "psi": {
            "psi0": _num(coeffs.psi.psi0, "dp"),
            "psi1": _num(coeffs.psi.psi1, "dp"),
            "psi2": _num(coeffs.psi.psi2, "dp"),
            "theta1": _num(coeffs.psi.theta1, "analytic"),
            "theta2": _num(coeffs.psi.theta2, "analytic"),
        },
        "diagnostics": {"remainder_decay_exponent": coeffs.psi.tail_decay_exponent},
    }
    _write_json(out_dir / "coeffs.json", doc)

    truth = oracle.tau_tail(law, 0, args.horizon, mode="float")
    approx = {t: tau0.evaluate_tau0(coeffs, args.horizon, t) for t in range(1, args.terms + 1)}
    header = ["n", "dp"] + [f"approx_{t}" for t in approx] + [f"err_{t}" for t in approx]
    cols = [truth, *approx.values(), *(np.abs(truth - a) for a in approx.values())]
    rows = ((n, *row) for n, row in enumerate(np.column_stack(cols)[1:].tolist(), 1))
    _write_rows(out_dir / "errors.csv", header, "%d" + ",%.17g" * len(cols) + "\r\n", rows)
    print(f"wrote {out_dir / 'coeffs.json'} and {out_dir / 'errors.csv'}")
    return EXIT_PASS


def _cmd_expand_local(args) -> int:
    law = load_model(args.model)
    out_dir = Path(args.out_dir)
    # refuse an unfit law, then each oversized table, before the DP check of the closed form
    law.require_expansion_ready()
    n_grid = np.unique(np.geomspace(32, args.horizon, 60).astype(int))
    if args.x_max * n_grid.size > LOCAL_ROW_CAP:
        raise ResourceCapExceeded(f"{args.x_max * n_grid.size} error rows exceed {LOCAL_ROW_CAP}")
    U = polyharmonic.u_wiener_hopf(law, args.x_max, args.terms)
    table = oracle.conditioned_table(law, args.horizon, args.x_max, strict=False)
    V = conditioned.weak_renewal(oracle.ladder_renewal(law, args.x_max))
    doc = {
        "model": law_to_json(law),
        "horizon": args.horizon,
        "U": {
            f"U_{j}": {str(x): _num(U[j - 1, x], "wiener-hopf") for x in range(1, args.x_max + 1)}
            for j in range(1, args.terms + 1)
        },
        "V": {str(x): _num(V[x], "wiener-hopf") for x in range(args.x_max + 1)},
    }
    _write_json(out_dir / "local_coeffs.json", doc)

    def rows():  # one x at a time: the file is never held as one list
        for x in range(1, args.x_max + 1):
            res = conditioned.u_expansion_eval(table, U, x, n_grid, J=args.terms)
            yield from zip(n_grid, [x] * n_grid.size, res["truth"], res["approx"], res["error"])

    _write_rows(out_dir / "local_errors.csv", ["n", "x", "dp", "approx", "err"],
                "%d,%d,%.17g,%.17g,%.17g\r\n", rows())
    print(f"wrote {out_dir / 'local_coeffs.json'} and {out_dir / 'local_errors.csv'}")
    return EXIT_PASS


def _cmd_expand_taux(args) -> int:
    law = load_model(args.model)
    out_dir = Path(args.out_dir)
    J = args.terms
    # the closed form sweeps nothing: --horizon is accepted and not read
    top = polyharmonic.ladder_reach(law, args.x_max, J) if args.check_polyharmonic else args.x_max
    ladder = polyharmonic.v_wiener_hopf(law, top, J)
    doc = {
        "model": law_to_json(law),
        "nu": {f"nu_{j}": _num(ladder.nu[j - 1], "wiener-hopf") for j in range(1, J + 1)},
        "V": {
            f"V_{j}": {str(x): _num(ladder[j][x], "wiener-hopf") for x in range(args.x_max + 1)}
            for j in range(1, J + 1)
        },
    }
    if law.left_continuous:
        lc = polyharmonic.v_leftcont(law, args.x_max, J)
        doc["V_leftcont"] = {
            f"V_{j}": {str(x): _num(lc[j][x], "analytic") for x in range(args.x_max + 1)}
            for j in range(1, J + 1)
        }
    checks = polyharmonic.certify(law, ladder, args.x_max) if args.check_polyharmonic else ()
    if checks:
        doc["polyharmonic_checks"] = {c.key: _num(c.value, "wiener-hopf") for c in checks}
    _write_json(out_dir / "taux_coeffs.json", doc)
    print(f"wrote {out_dir / 'taux_coeffs.json'}")
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"FAIL: {c.name}: {c.measure} {c.value:.3e} > {c.limit:g}")
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


def _cmd_verify(args) -> int:
    law = load_model(args.model)
    N = args.horizon
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append((name, bool(ok), detail))

    # the suite's free float sweep also serves the paper route's V and U
    # ladders: read at -x_max..0, mirrored, and at 0..x_max
    xs = ()
    if args.check_polyharmonic:
        if args.x_max > VERIFY_X_MAX_CAP:
            raise ResourceCapExceeded(f"x-max {args.x_max} exceeds {VERIFY_X_MAX_CAP}")
        top = polyharmonic.ladder_reach(law, args.x_max, 2)  # refuses x-max 0 first
        xs = range(-args.x_max, args.x_max + 1)
    ids = oracle.identity_suite(law, N, xs)
    k = len(ids.primes)
    where = (f"at N={N}, {k} primes, false pass <= "
             f"(floor({ids.bits}/23)/{ids.pool})^{k} = {ids.false_pass:.1e}")

    def exact(name: str, nonzero: bool) -> None:
        check(name, not nonzero, f"residual {'nonzero' if nonzero else 0} {where}")

    exact("spitzer(rational)", ids.spitzer)
    spf = ids.spitzer_float
    check("spitzer(float)", spf < 1e-12, f"max gap {spf:.3e} at N={N}")
    for x, d in enumerate(ids.duality, 1):
        exact(f"duality(x={x})", d)
    if ids.leftcont is not None:
        exact("leftcont", ids.leftcont)

    # tau0 decay ladder: its coefficients, or the one closure failure, also
    # serve the polyharmonic certification
    try:
        coeffs = tau0.tau0_coeffs(law, N=N, deltas=ids.delta)
    except TailNotDecayed as exc:
        coeffs, closure = None, exc
        check("tau0 ladder", False, str(exc))
    if coeffs is not None:
        truth = ids.tau0_tail
        ns = np.arange(max(N // 16, 64), N + 1)
        fit_ns = np.arange(min(ns[0], N - 31), N + 1)  # >= 32 points at any horizon
        for t in (1, 2, 3):
            approx = tau0.evaluate_tau0(coeffs, N, t)
            if (np.abs(truth[ns] - approx[ns]) / truth[ns]).max() <= 1e-9:  # terminates
                check(f"tau0 ladder terms={t}", True, f"terminates (float noise) on n={ns[0]}..{N}")
                continue
            err = np.abs(truth[fit_ns] - approx[fit_ns])
            nz = err > 1e-15
            slope = float(-np.polyfit(np.log(fit_ns[nz]), np.log(err[nz]), 1)[0])
            check(
                f"tau0 ladder terms={t}",
                slope >= t + 0.25,
                f"decay exponent {slope:.3f} on n={fit_ns[0]}..{N}",
            )

    if args.check_polyharmonic:
        # certify the closed form as `expand taux` does; gauge the paper route by it
        try:
            if coeffs is None:
                raise closure
            paper = polyharmonic.v_ladder(law, args.x_max, 2, N, free=(coeffs, ids.points))
            ladder = polyharmonic.v_wiener_hopf(law, top, 2)
            for c in polyharmonic.certify(law, ladder, args.x_max):
                check(c.name, c.passed, f"{c.measure} {c.value:.3e}")
            ws = conditioned.make_workspace(law, args.x_max, N, traces=ids.points)
            routes = (
                ("V", paper.V, ladder.V),
                ("U", conditioned.q_ladder(ws, 3).q[1::2],
                 polyharmonic.u_wiener_hopf(law, args.x_max, 2)),
            )
            for name, route, closed in routes:
                gap = polyharmonic.route_gap(route, closed, args.x_max)
                check(f"{name} paper route", gap <= polyharmonic.ROUTE_GAP_TOL,
                      f"relative gap {gap:.3e} at N={N}")
        except TailNotDecayed as exc:
            check("polyharmonic", False, str(exc))

    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, detail in results:
        ok_all &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_PASS if ok_all else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser, horizon: int) -> None:
    p.add_argument("--model", required=True, help="model JSON path or builtin (lazy, skewed)")
    p.add_argument("--horizon", type=int, default=horizon, help="DP horizon N")
    p.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fluctuator", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact DP tables")
    _add_common(p, 2048)
    p.add_argument("--x", type=int, default=0, help="start level for tau_x")
    p.add_argument("--mode", choices=("rational", "float"), default="float")
    p.set_defaults(func=_cmd_oracle)

    pe = sub.add_parser("expand", help="asymptotic coefficient pipelines")
    esub = pe.add_subparsers(dest="target", required=True)

    p = esub.add_parser("tau0", help="nu_1..nu_3 for P(tau_0 > n)")
    _add_common(p, 8192)
    p.add_argument("--terms", type=int, default=3, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_expand_tau0)

    p = esub.add_parser("local", help="U_j(x) for conditioned local probabilities")
    _add_common(p, 8192)
    p.add_argument("--terms", type=int, default=2, choices=(1, 2))
    p.add_argument("--x-max", type=int, default=20)
    p.set_defaults(func=_cmd_expand_local)

    p = esub.add_parser("taux", help="V_j(x) for P(tau_x > n)")
    _add_common(p, 8192)
    p.add_argument("--terms", type=int, default=2, choices=(1, 2))
    p.add_argument("--x-max", type=int, default=30)
    p.add_argument("--check-polyharmonic", action="store_true")
    p.set_defaults(func=_cmd_expand_taux)

    p = sub.add_parser("verify", help="identity suite")
    _add_common(p, 2048)
    p.add_argument("--x-max", type=int, default=15)
    p.add_argument("--check-polyharmonic", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.horizon < 64 and args.func is not _cmd_expand_taux:  # it sweeps nothing
            raise ConfigError("horizon must be >= 64")
        if getattr(args, "x_max", 0) < 0:
            raise ConfigError(f"x-max must be >= 0, got {args.x_max}")
        return args.func(args)
    except (ConfigError, LawError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TailNotDecayed as exc:
        print(f"FAIL: {exc}")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
