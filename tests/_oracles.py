"""Independent high-precision oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
phi/gamma run in 80-digit mpmath arithmetic straight from their defining
formulas, classical quadrature weights come from an exact-rational
Vandermonde solve, and the RK4 oracle is the textbook four-stage loop.
The frozen catalog builders at the end are the exception: they build the
package's own Tableau type, scheme by scheme, as a fixed reference for the
catalog's family builders.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from phistep.phifun import PhiExpr, const_term, exp_term, phi, psi
from phistep.tableau import _ZERO, MAX_STEPS, Tableau, _lagrange_basis, complete_summation

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


# ---------------------------------------------------------------------------
# frozen catalog builders: every catalog scheme written out on its own,
# as the package had them before it built the ETD Adams and transformed
# RK4 families from shared constructions; the catalog keeps equal tableaux


def _etd_weights(nodes: Sequence[Fraction]) -> list[PhiExpr]:
    """Exponential quadrature weights over [t_n, t_n + h] for the given
    interpolation nodes (in units of h, relative to t_n), using
    int_0^1 e^{(1-t) z} t^j dt = j! phi_{j+1}(z)."""
    weights = []
    for coeffs in _lagrange_basis(nodes):
        expr = _ZERO
        for j, a in enumerate(coeffs):
            if a != 0:
                expr = expr + phi(j + 1, a * math.factorial(j))
        weights.append(expr)
    return weights


def etd_ab_weights(q: int) -> tuple[PhiExpr, tuple[PhiExpr, ...]]:
    """Adams-Bashforth-type weights for nodes 0, -1, ..., -(q-1), returned
    as (B1, V): B1 multiplies N(u^n) and V[i-1] multiplies N(u^{n-i})."""
    if not 2 <= q <= MAX_STEPS:
        raise ValueError(f"q must be in [2, {MAX_STEPS}], got {q}")
    w = _etd_weights([Fraction(-i) for i in range(q)])
    return w[0], tuple(w[1:])


def etd_am_weights(q: int) -> tuple[PhiExpr, ...]:
    """Adams-Moulton-type weights for nodes 1, 0, -1, ..., -(q-2); entry 0
    multiplies the (predicted) N at t_{n+1}, entry 1 multiplies N(u^n)."""
    if not 2 <= q <= MAX_STEPS:
        raise ValueError(f"q must be in [2, {MAX_STEPS}], got {q}")
    return tuple(_etd_weights([Fraction(1 - i) for i in range(q)]))


def etd_euler() -> Tableau:
    """First-order ETD scheme u^{n+1} = e^{hL} u^n + h phi_1(hL) N(u^n)."""
    return Tableau(
        name="etdeuler", order=1, stages=1, steps=1,
        C=(0,), A=((_ZERO,),), B=(phi(1),),
    )


def etdrk2() -> Tableau:
    """Second-order ETD Runge-Kutta scheme (exponential Heun)."""
    t = Tableau(
        name="etdrk2", order=2, stages=2, steps=1,
        C=(0, 1),
        A=((_ZERO, _ZERO), (phi(1), _ZERO)),
        B=(None, phi(2)),
    )
    return complete_summation(t)


def etdrk4() -> Tableau:
    """Fourth-order ETD Runge-Kutta scheme (Cox & Matthews).

    Stage 4 is chained from stage 2 in the original formulation,
    v^4 = e^{hL/2} v^2 + (h/2) phi_1(hL/2) (2 N(v^3) - N(v^1)),
    recorded here as a stage-source override; the equivalent strict-form
    first column follows from the summation property (A41 = phi1 - 2 psi_12
    with A42 = 0, A43 = 2 psi_12).
    """
    half = Fraction(1, 2)
    psi12 = psi(1, half)
    t = Tableau(
        name="etdrk4", order=4, stages=4, steps=1,
        C=(0, half, half, 1),
        A=(
            (_ZERO, _ZERO, _ZERO, _ZERO),
            (psi12, _ZERO, _ZERO, _ZERO),
            (None, psi12, _ZERO, _ZERO),
            (None, _ZERO, 2 * psi12, _ZERO),
        ),
        B=(None, 2 * phi(2) - 4 * phi(3), 2 * phi(2) - 4 * phi(3), 4 * phi(3) - phi(2)),
        stage_source={4: 2},
        stage_source_coeffs={(4, 1): -1 * psi12, (4, 3): 2 * psi12},
    )
    return complete_summation(t)


def build_abnorsett(q: int) -> Tableau:
    """ETD Adams-Bashforth scheme of order q (one stage, q steps)."""
    if not 4 <= q <= 6:
        raise ValueError(f"order must be in [4, 6], got {q}")
    _, hist = etd_ab_weights(q)
    t = Tableau(
        name=f"abnorsett{q}", order=q, stages=1, steps=q,
        C=(0,), A=((_ZERO,),), B=(None,),
        U=(tuple(_ZERO for _ in range(q - 1)),),
        V=hist,
    )
    return complete_summation(t)


def build_pec(p: int) -> Tableau:
    """Predict-evaluate-correct scheme of order p: ETD Adams-Bashforth of
    order p-1 predicts, the order-p ETD Adams-Moulton corrects once."""
    if not 4 <= p <= 7:
        raise ValueError(f"order must be in [4, 7], got {p}")
    q = p - 1
    _, pred_hist = etd_ab_weights(p - 1)
    cw = etd_am_weights(p)
    t = Tableau(
        name=f"pec{p}2{q}", order=p, stages=2, steps=q,
        C=(0, 1),
        A=((_ZERO, _ZERO), (None, _ZERO)),
        B=(None, cw[0]),
        U=(tuple(_ZERO for _ in range(q - 1)), pred_hist),
        V=tuple(cw[2:]),
    )
    return complete_summation(t)


def build_pecec(p: int) -> Tableau:
    """Like build_pec but with the corrector applied twice (PECEC)."""
    if not 4 <= p <= 7:
        raise ValueError(f"order must be in [4, 7], got {p}")
    q = p - 1
    _, pred_hist = etd_ab_weights(p - 1)
    cw = etd_am_weights(p)
    zrow = tuple(_ZERO for _ in range(q - 1))
    t = Tableau(
        name=f"pecec{p}3{q}", order=p, stages=3, steps=q,
        C=(0, 1, 1),
        A=(
            (_ZERO, _ZERO, _ZERO),
            (None, _ZERO, _ZERO),
            (None, cw[0], _ZERO),
        ),
        B=(None, _ZERO, cw[0]),
        U=(zrow, pred_hist, tuple(cw[2:])),
        V=tuple(cw[2:]),
    )
    return complete_summation(t)


def lawson4() -> Tableau:
    """Lawson's integrating-factor RK4: classical RK4 applied to the
    exponentially transformed variable e^{-Lt} u."""
    half = Fraction(1, 2)
    return Tableau(
        name="lawson4", order=4, stages=4, steps=1,
        C=(0, half, half, 1),
        A=(
            (_ZERO, _ZERO, _ZERO, _ZERO),
            (exp_term(half, half), _ZERO, _ZERO, _ZERO),
            (_ZERO, const_term(half), _ZERO, _ZERO),
            (_ZERO, _ZERO, exp_term(1, half), _ZERO),
        ),
        B=(
            exp_term(Fraction(1, 6), 1),
            exp_term(Fraction(1, 3), half),
            exp_term(Fraction(1, 3), half),
            const_term(Fraction(1, 6)),
        ),
        satisfies_summation=False,
    )


def ablawson4() -> Tableau:
    """Integrating-factor Adams-Bashforth 4: classical AB4 weights carried
    through the exponential transform."""
    return Tableau(
        name="ablawson4", order=4, stages=1, steps=4,
        C=(0,), A=((_ZERO,),),
        B=(exp_term(Fraction(55, 24), 1),),
        U=(tuple(_ZERO for _ in range(3)),),
        V=(
            exp_term(Fraction(-59, 24), 2),
            exp_term(Fraction(37, 24), 3),
            exp_term(Fraction(-9, 24), 4),
        ),
        satisfies_summation=False,
    )


def build_gen_lawson(q: int) -> Tableau:
    """Generalized Lawson scheme GenLawson4q (Krogstad, J. Comput. Phys.
    203 (2005)): classical RK4 on v(t) = e^{-Lt}(u(t) - w(t)), where w
    is the exact linear response to the degree-q polynomial P through
    N(u^n), N(u^{n-1}), ..., N(u^{n-q}).

    Written out, that is a 4-stage tableau with q + 1 steps and
    C = (0, 1/2, 1/2, 1).  With the Lagrange basis M on the nodes
    0, -1, ..., -q,

        l_m(theta)  = sum_j M[j,m] theta^j,
        w_{a,m}(z)  = sum_j M[j,m] j! a^{j+1} phi_{j+1}(a z),

    N_m = N(u^{n-m}) (m = 0 is stage 1, m >= 1 the U/V column m) enters

        stage 2:  w_{1/2,m}
        stage 3:  w_{1/2,m} - l_m(1/2)/2,              A32 = 1/2
        stage 4:  w_{1,m} - l_m(1/2) e^{z/2},          A43 = e^{z/2}
        output:   w_{1,m} - 2/3 l_m(1/2) e^{z/2} - l_m(1)/6,
                  B2 = B3 = e^{z/2}/3,  B4 = 1/6.

    The basis sums to 1, so every row satisfies the summation property
    exactly.  Since the current time is a node, the first transformed
    stage derivative N(u^n) - P(0) vanishes and fixed points are kept;
    the order is max(4, q + 1).
    """
    if not 1 <= q <= MAX_STEPS - 1:
        raise ValueError(f"q must be in [1, {MAX_STEPS - 1}], got {q}")
    half = Fraction(1, 2)
    basis = _lagrange_basis([Fraction(-m) for m in range(q + 1)])

    def omega(a: Fraction, coeffs: list) -> PhiExpr:
        return sum(
            (phi(j + 1, c * math.factorial(j) * a ** (j + 1), a)
             for j, c in enumerate(coeffs) if c != 0),
            _ZERO,
        )

    def ell(coeffs: list, theta: Fraction) -> Fraction:
        return sum((c * theta**j for j, c in enumerate(coeffs)), Fraction(0))

    stage2, stage3, stage4, out = [], [], [], []  # column m of each row
    for c in basis:
        mid, end = ell(c, half), ell(c, Fraction(1))
        w_half, w_full = omega(half, c), omega(Fraction(1), c)
        stage2.append(w_half)
        stage3.append(w_half - const_term(mid / 2))
        stage4.append(w_full - exp_term(mid, half))
        out.append(w_full - exp_term(mid * Fraction(2, 3), half) - const_term(end / 6))
    return Tableau(
        name=f"genlawson4{q}", order=max(4, q + 1), stages=4, steps=q + 1,
        C=(0, half, half, 1),
        A=(
            (_ZERO, _ZERO, _ZERO, _ZERO),
            (stage2[0], _ZERO, _ZERO, _ZERO),
            (stage3[0], const_term(half), _ZERO, _ZERO),
            (stage4[0], _ZERO, exp_term(1, half), _ZERO),
        ),
        B=(out[0], exp_term(Fraction(1, 3), half), exp_term(Fraction(1, 3), half),
           const_term(Fraction(1, 6))),
        U=(tuple(_ZERO for _ in range(q)), stage2[1:], stage3[1:], stage4[1:]),
        V=out[1:],
    )


def frozen_catalog() -> dict:
    """The 21 catalog tableaux by name, from the builders above."""
    tableaux = [
        etd_euler(), etdrk2(), etdrk4(), lawson4(), ablawson4(),
        *map(build_abnorsett, (4, 5, 6)), *map(build_gen_lawson, range(1, 6)),
        *map(build_pec, (4, 5, 6, 7)), *map(build_pecec, (4, 5, 6, 7)),
    ]
    return {t.name: t for t in tableaux}
