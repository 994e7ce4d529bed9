"""Edgeworth machinery: Hermite polynomials, cumulant-partition sums, the
local-expansion polynomials theta_j(x), and the correction coefficients
(theta_1, theta_2) of Delta_n / n.  A polynomial is a plain tuple of its
ascending coefficients; callers read p(x) as `np.polyval(p[::-1], x)`.

(theta_1, theta_2) are a closed form in the cumulants: exact rationals, with
one rounding at the end.  The theta polynomials sum a law-free table of
exact terms in the cumulants, so their cancelling partition sums are exact,
convert them to the a-basis exactly with the table's float coefficients,
and divide by sqrt(2 pi v) in integer fixed point, rounding once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from . import basis
from .walk import LatticeLaw

__all__ = [
    "hermite",
    "partition_tuples",
    "theta_polys",
    "delta_coeffs",
    "S1_AT_ZERO",
]

# Value assigned to the first periodic Bernoulli factor S_1 at its jump
# point.  The CDF expansion is evaluated exactly on the lattice, where S_1
# is discontinuous; we take the right limit, which is the convention that
# reproduces the exact symmetric-walk identity Delta_n = -p_n(0)/2.  The
# convention-free truth is the Wiener-Hopf closed form
# (polyharmonic.v_wiener_hopf): the nu_1, nu_2 that tau0 builds on these
# theta values meet it to about 1e-11 relative at N = 8192.
S1_AT_ZERO = Fraction(1, 2)
# S_2(0) = B_2 / 2!, the second periodic Bernoulli factor at zero
_S2_AT_ZERO = Fraction(1, 12)
# pi to 100 decimals, truncated: pi = _PI_E100 / 10^100 + O(10^-100)
_PI_E100 = int(
    "3"
    "14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)
# bits of the fixed point 2^_B / sqrt(2 pi v) of theta_polys
_B = 256


@cache
def hermite(m: int) -> tuple[int, ...]:
    """Probabilists' Hermite polynomial He_m: its exact integer coefficients,
    ascending, from He_m = x He_(m-1) - (m-1) He_(m-2)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m < 2:
        return (0,) * m + (1,)
    h1, h2 = hermite(m - 1), hermite(m - 2) + (0, 0)
    return tuple(a - (m - 1) * b for a, b in zip((0,) + h1, h2))


def partition_tuples(nu: int) -> list[tuple[int, ...]]:
    """Nonnegative (k_1..k_nu) with k_1 + 2 k_2 + ... + nu k_nu = nu."""
    out: list[tuple[int, ...]] = []

    def rec(part: int, remaining: int, acc: list[int]) -> None:
        if part == nu:
            acc.append(remaining // nu if remaining % nu == 0 else -1)
            if acc[-1] >= 0:
                out.append(tuple(acc))
            acc.pop()
            return
        for k in range(remaining // part + 1):
            acc.append(k)
            rec(part + 1, remaining - part * k, acc)
            acc.pop()

    rec(1, nu, [])
    return out


@cache
def _theta_terms(J: int) -> dict[tuple[int, int], tuple[int, tuple]]:
    """The law-free integer table of theta_polys: (j, p) -> (L, ((c, ks, e),
    ...)), so that the coefficient of x^p in the n^-(j+1/2) ladder term is
    D^p sum c prod_m K_(m+2)^(k_m) K_2^e / (L K_2^(3j - p)) over sqrt(2 pi v),
    K_m = D^m kappa_m with D = `LatticeLaw.denominator`, ks the pairs
    (m + 2, k_m) with k_m > 0.

    It expands (1/(sigma sqrt(n))) [phi(t) + sum q_nu(t) n^(-nu/2)], t =
    x/(sigma sqrt(n)): partition ks of nu, with s = sum k_m, weighs
    phi(t) He_(nu+2s)(t) n^(-nu/2) by prod (kappa_(m+2) / ((m+2)!
    sigma^(m+2)))^(k_m) / k_m!, and phi(t) / (sigma sqrt(n)) contributes
    (-1)^k x^(2k) / (k! (2 v n)^k) / sqrt(2 pi v n).  x^q of He_(nu+2s)
    and the k-th of these land in j = (2k + q + nu) / 2 at p = 2k + q.
    He_(nu+2s) has only powers q = nu (mod 2), so sigma appears to the
    even power -(nu + 2s + p) = -2(j + s) beside the 1 / sqrt(2 pi v).  As
    sum (m + 2) k_m = nu + 2s, a term (c / L) prod kappa_(m+2)^(k_m) / v^(j+s)
    is D^p (c / L) prod K_(m+2)^(k_m) K_2^e / K_2^(3j - p) with e = nu - s."""
    table: dict = {(j, p): {} for j in range(J + 1) for p in range(2 * j + 1)}
    for nu in range(2 * J + 1):
        for ks in partition_tuples(nu) if nu else [()]:
            s = sum(ks)
            w = Fraction(1)
            for m, km in enumerate(ks, start=1):
                w /= math.factorial(m + 2) ** km * math.factorial(km)
            key = tuple((m + 2, km) for m, km in enumerate(ks, start=1) if km)
            for q, hq in enumerate(hermite(nu + 2 * s)):
                if hq == 0:
                    continue
                for k in range(J - (q + nu) // 2 + 1):
                    p = 2 * k + q
                    d_k = Fraction((-1) ** k, math.factorial(k) * 2**k)
                    terms = table[(p + nu) // 2, p]
                    c, _ = terms.get(key, (0, 0))
                    terms[key] = (c + w * d_k * hq, nu - s)
    for jp, terms in table.items():
        L = math.lcm(*(c.denominator for c, _ in terms.values()))
        table[jp] = L, tuple((int(c * L), ks, e) for ks, (c, e) in terms.items() if c)
    return table


def theta_polys(law: LatticeLaw, r: int) -> list[tuple[float, ...]]:
    """Polynomials theta_0..theta_J, J = floor(r/2), such that
    p_n(x) ~ sum_j theta_j(x) a_(n-1)^(j+1); theta_j has degree exactly 2j.

    The n^(-(j+1/2)) ladder of the Edgeworth expansion (_theta_terms) is
    summed in integers to one rational a coefficient and converted to the
    shifted a-basis exactly, each float gamma_k the integer ratio it is; the
    fractions are left unreduced.  Each sum is then times 2^_B / sqrt(2 pi v),
    one integer square root a call, and rounded once by an int/int division.
    """
    law.require_expansion_ready()
    J = r // 2
    kappas = law.cumulants(2 * J + 2)
    v, D = kappas[1], law.denominator
    K = [k.numerator * (D**m // k.denominator) for m, k in enumerate(kappas, 1)]  # D^m kappa_m
    # f[j][p] = (numerator, denominator) of the x^p coefficient in the
    # n^-(j+1/2) ladder term, times sqrt(2 pi v)
    f = [[(0, 1)] * (2 * j + 1) for j in range(J + 1)]
    for (j, p), (L, terms) in _theta_terms(J).items():
        acc = 0
        for c, ks, e in terms:
            for order, km in ks:
                c *= K[order - 1] ** km
            acc += c * K[1] ** e
        f[j][p] = D**p * acc, L * K[1] ** (3 * j - p)

    # n^-(i+1/2) = sum_k gamma_k a_(n-1)^(k), k = i+1 .. J+1
    thetas = [[(0, 1)] * (2 * j + 1) for j in range(J + 1)]
    for i in range(J + 1):
        for k, gamma in basis.power_to_shifted_basis(i + 1, J + 1).items():
            a, b = gamma.as_integer_ratio()
            row = thetas[k - 1]
            for p, (c, d) in enumerate(f[i]):
                s, t = row[p]
                row[p] = s * b * d + a * c * t, t * b * d
    # 2^_B / sqrt(2 pi v) to within one unit: relative error sqrt(2 pi v) 2^-_B
    root = math.isqrt((v.denominator * 10**100 << 2 * _B) // (2 * _PI_E100 * v.numerator))
    return [tuple(s * root / (t << _B) for s, t in row) for row in thetas]


def _times_sqrt_2_over(r: Fraction, v: Fraction) -> float:
    """r sqrt(2 / v), correctly rounded: the square root of 2 r^2 / v to 64
    or more bits by an integer square root, with a sticky bit for the rest."""
    x = 2 * r * r / v
    shift = max(0, 130 - x.numerator.bit_length() + x.denominator.bit_length())
    shift += shift % 2
    m, rem = divmod(x.numerator << shift, x.denominator)
    root = math.isqrt(m)
    inexact = rem != 0 or root * root != m
    return math.copysign(math.ldexp(float(2 * root + inexact), -shift // 2 - 1), r)


def delta_coeffs(law: LatticeLaw) -> tuple[float, float]:
    """(theta_1, theta_2) of Delta_n / n ~ theta_1 a_(n-1)^(2) + theta_2
    a_(n-1)^(3), Delta_n = 1/2 - P(S_n <= 0), the first two correction
    coefficients in the shifted a-basis, from the Edgeworth terms at zero
    plus the lattice (periodic Bernoulli) corrections.  With v = sigma^2 and
    kappa_i the cumulants,

        Delta_n ~ -R_A / sqrt(2 pi v) n^(-1/2) + R_B / sqrt(2 pi v) n^(-3/2),
        R_A = S_1 + kappa_3 / (6 v),
        R_B = 35 kappa_3^3 / (432 v^4) - 5 kappa_3 kappa_4 / (48 v^3)
              + kappa_5 / (40 v^2) + S_1 (5 kappa_3^2 / (24 v^3) - kappa_4 / (8 v^2))
              + S_2 kappa_3 / (2 v^2),

    (He_2(0), He_4(0), He_6(0), He_8(0) = -1, 3, -15, 105), so that
    theta_1 = sqrt(2 / v) R_A and theta_2 = sqrt(2 / v) (5 R_A / 4 + 2 R_B / 3),
    the shift a_(n-1)^(2) = a_n^(2) - a_n^(3) included.  R_A and R_B are
    exact rationals.  The values depend on the S_1(0) jump convention."""
    law.require_expansion_ready()
    _, v, k3, k4, k5 = law.cumulants(5)
    s1, s2 = S1_AT_ZERO, _S2_AT_ZERO
    r_a = s1 + k3 / (6 * v)
    r_b = (
        35 * k3**3 / (432 * v**4) - 5 * k3 * k4 / (48 * v**3) + k5 / (40 * v**2)
        + s1 * (5 * k3**2 / (24 * v**3) - k4 / (8 * v**2))
        + s2 * k3 / (2 * v**2)
    )
    return _times_sqrt_2_over(r_a, v), _times_sqrt_2_over(5 * r_a / 4 + 2 * r_b / 3, v)
