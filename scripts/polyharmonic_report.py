"""Report the V_j ladder and its polyharmonicity defects for a model:
V_1, V_2 values, (P - I)^k defects, the (P - I)V_2 = V_1 identity, and the
asymptotic polynomial tail fit.

Usage: python scripts/polyharmonic_report.py [--model lazy] [--x-max 40]
"""

import argparse

import numpy as np

from fluctuator import polyharmonic as ph
from fluctuator.cli import load_model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="lazy")
    ap.add_argument("--x-max", type=int, default=40)
    ap.add_argument("--horizon", type=int, default=1 << 13)
    args = ap.parse_args()

    law = load_model(args.model)
    cert = ph.certify(law, args.x_max, 2, args.horizon)
    lad = cert.ladder

    print(f"model {args.model}: nu_1 = {lad.nu[0]:.12g}, nu_2 = {lad.nu[1]:.12g}")
    print("x   V_1(x)              V_2(x)")
    for x in range(0, args.x_max + 1, max(args.x_max // 10, 1)):
        print(f"{x:<3d} {lad[1][x]:<19.12g} {lad[2][x]:.12g}")

    for c in cert.checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<24} {verdict}  {c.measure} {c.value:.3e} (limit {c.limit:g})")

    xs = np.arange(1, args.x_max + 1)
    for j, deg in ((1, 1), (2, 3)):
        fit = ph.poly_tail_fit(xs, lad[j][1 : args.x_max + 1], deg)
        verdict = "PASS" if fit.passed else "FAIL"
        print(f"V_{j} degree-{deg} tail fit: {verdict}, coeffs {fit.coefficients}")

    if law.left_continuous:
        lc = ph.v_leftcont(law, args.x_max, 2)
        gap = np.abs(lc[1][1:] / lad[1][1 : args.x_max + 1] - 1).max()
        print(f"left-continuous closed form vs ladder V_1: max rel gap {gap:.3e}")


if __name__ == "__main__":
    main()
