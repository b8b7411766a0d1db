"""Independent high-precision oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
phi/gamma run in 80-digit mpmath arithmetic straight from their defining
formulas, classical quadrature weights come from an exact-rational
Vandermonde solve, and the RK4 oracle is the textbook four-stage loop.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 80


def phi_reference(index: int, z) -> mp.mpc:
    """phi_index(z) to ~80 digits: adaptive series where it converges in a
    few hundred terms, exp-seeded recurrence otherwise (no cancellation at
    this precision for |z| up to 1e6)."""
    z = mp.mpc(z)
    if abs(z) <= 40:
        term = mp.mpf(1) / mp.factorial(index)
        total = term
        j = 0
        while True:
            j += 1
            term = term * z / (index + j)
            total += term
            if abs(term) <= mp.mpf(10) ** (-90) * abs(total):
                return total
    p = mp.exp(z)
    for l in range(index):
        p = (p - mp.mpf(1) / mp.factorial(l)) / z
    return p


def phi_reference_rows(top: int, z) -> list:
    """phi_0..phi_top(z): phi_top by phi_reference, and the lower indices
    by the downward identity phi_l = z phi_{l+1} + 1/l!, which loses
    about log10(|z|^top / top!) of the 80 digits (20 at |z| = 2000)."""
    z = mp.mpc(z)
    rows = [phi_reference(top, z)]
    for l in range(top - 1, -1, -1):
        rows.append(z * rows[-1] + mp.mpf(1) / mp.factorial(l))
    return rows[::-1]


def gamma_reference_rows(j: int, k: int, z) -> list:
    """gamma_0..gamma_j(k, z) to ~80 digits via the defining recurrence."""
    z = mp.mpc(z)
    rows = [(mp.exp(k * z) - 1) / z]
    for jj in range(1, j + 1):
        acc = mp.mpc(0)
        for m in range(1, jj + 1):
            acc += mp.mpf((-1) ** (m - 1)) / m * rows[jj - m]
        acc -= mp.binomial(k, jj)
        rows.append(acc / z)
    return rows


def gamma_reference(j: int, k: int, z) -> mp.mpc:
    """gamma_j(k, z) to ~80 digits via the defining recurrence."""
    return gamma_reference_rows(j, k, z)[j]


def rel_err(got, want) -> float:
    """|got - want| / |want| in mpmath arithmetic (absolute if want = 0)."""
    want = mp.mpc(want)
    err = abs(mp.mpc(complex(got)) - want)
    return float(err / abs(want)) if want != 0 else float(err)


def quadrature_weights(nodes: list[Fraction]) -> list[Fraction]:
    """Exact weights w with sum_i w_i * node_i^m = integral_0^1 t^m dt.

    This is the interpolatory quadrature that classical Adams-Bashforth /
    Adams-Moulton weights satisfy; solved as a rational Vandermonde system
    by Gaussian elimination, independent of any Lagrange-basis expansion.
    """
    q = len(nodes)
    aug = [[Fraction(nodes[i]) ** m for i in range(q)] + [Fraction(1, m + 1)] for m in range(q)]
    for col in range(q):
        piv = next(r for r in range(col, q) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(q):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][q] for r in range(q)]


def classical_ab_weights(q: int) -> list[Fraction]:
    """Adams-Bashforth weights over nodes 0, -1, ..., -(q-1)."""
    return quadrature_weights([Fraction(-i) for i in range(q)])


def classical_am_weights(q: int) -> list[Fraction]:
    """Adams-Moulton weights over nodes 1, 0, -1, ..., -(q-2)."""
    return quadrature_weights([Fraction(1 - i) for i in range(q)])


def rk4_step(f, u, h):
    """One classical RK4 step for a scalar/array ODE u' = f(u)."""
    k1 = f(u)
    k2 = f(u + 0.5 * h * k1)
    k3 = f(u + 0.5 * h * k2)
    k4 = f(u + h * k3)
    return u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def logistic_probe_solution(t: float, u0: float = 0.5) -> float:
    """Exact solution of u' = -u + u^2 (Bernoulli): u = 1/(1 + (1/u0 - 1) e^t)."""
    return 1.0 / (1.0 + (1.0 / u0 - 1.0) * math.exp(t))
