"""Report the V_j ladder and its polyharmonicity defects for a model:
V_1, V_2 values of the closed form, (P - I)^k defects, the (P - I)V_2 = V_1
identity, the gap of the paper's duality route at --horizon (on the window
x <= 2 sigma sqrt(horizon) that `verify` judges too), and the asymptotic
polynomial tail fit.

Usage: python scripts/polyharmonic_report.py [--model lazy] [--x-max 40]
"""

import argparse

import numpy as np

from fluctuator import oracle, polyharmonic as ph, tau0
from fluctuator.cli import load_model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="lazy")
    ap.add_argument("--x-max", type=int, default=40)
    ap.add_argument("--horizon", type=int, default=1 << 13)
    args = ap.parse_args()

    law = load_model(args.model)
    V = ph.v_wiener_hopf(law, ph.ladder_reach(law, args.x_max, 2), 2)

    print(f"model {args.model}: nu_1 = {V[0, 0]:.12g}, nu_2 = {V[1, 0]:.12g}")
    print("x   V_1(x)              V_2(x)")
    for x in range(0, args.x_max + 1, max(args.x_max // 10, 1)):
        print(f"{x:<3d} {V[0, x]:<19.12g} {V[1, x]:.12g}")

    for c in ph.certify(law, V, args.x_max):
        verdict = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<24} {verdict}  {c.measure} {c.value:.3e} (limit {c.limit:g})")
    # the paper route reads one free sweep: Delta_n and the points -x_max..0
    delta, points = oracle.delta_table(law, args.horizon, range(-args.x_max, 1))
    paper = ph.v_ladder(law, args.x_max, 2, tau0.tau0_coeffs(law, delta), points)
    window = ph.route_window(law, args.x_max, args.horizon)
    gap = ph.route_gap(paper, V, window)
    verdict = "PASS" if gap <= ph.ROUTE_GAP_TOL else "FAIL"
    print(f"{'V paper route':<24} {verdict}  relative gap {gap:.3e} on x=0..{window} "
          f"at N={args.horizon} (limit {ph.ROUTE_GAP_TOL:g})")

    xs = np.arange(1, args.x_max + 1)
    for j, deg in ((1, 1), (2, 3)):
        fit = ph.poly_tail_fit(xs, V[j - 1, 1 : args.x_max + 1], deg)
        verdict = "PASS" if fit.passed else "FAIL"
        print(f"V_{j} degree-{deg} tail fit: {verdict}, coeffs {fit.coefficients}")

    if law.left_continuous:
        lc = ph.v_leftcont(law, args.x_max, 2)
        gap = np.abs(lc[0, 1:] / V[0, 1 : args.x_max + 1] - 1).max()
        print(f"left-continuous closed form vs ladder V_1: max rel gap {gap:.3e}")


if __name__ == "__main__":
    main()
