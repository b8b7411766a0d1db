"""Exponential general linear method tableaux and the scheme catalog.

A scheme with s stages and q steps advances coefficients u^n via

    v^1 = u^n,
    v^i = e^{C_i h L} u^n + h sum_{j<i} A_ij(hL) N(v^j)
                          + h sum_{j=1}^{q-1} U_ij(hL) N(u^{n-j}),
    u^{n+1} = e^{h L} u^n + h sum_i B_i(hL) N(v^i)
                          + h sum_{j=1}^{q-1} V_j(hL) N(u^{n-j}),

with every coefficient a finite combination of phi/exp terms (PhiExpr).
Consistency pins the first column of each row through the summation
property

    B_1 = phi_1 - sum_{i>=2} B_i - sum_j V_j,
    A_i1 = psi_{1,i} - sum_{j>=2} A_ij - sum_j U_ij,

which integrating-factor (Lawson-type) schemes deliberately violate.

The catalog covers ETD Runge-Kutta schemes (Cox & Matthews, J. Comput.
Phys. 176 (2002); Krogstad, J. Comput. Phys. 203 (2005)), ETD
Adams-Bashforth schemes (Norsett, Lecture Notes in Math. 109 (1969)),
ETD predictor-corrector combinations of those, Lawson's integrating
factor methods (Lawson, SIAM J. Numer. Anal. 4 (1967)) and their
generalized form (Krogstad, 2005), written as exact tableaux by four
constructions: ETD Runge-Kutta by hand, ETD Adams (_adams: ABNorsett,
PEC, PECEC), transformed RK4 (_transformed_rk4: Lawson4, GenLawson4q)
and transformed AB (ablawson4).  All rational coefficients are kept
exact until evaluation, so each tableau reduces to its classical
counterpart at z = 0 in exact arithmetic.
"""
from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .errors import TableauFileError
from .phifun import PhiExpr, const_term, exp_term, phi, psi

__all__ = [
    "Tableau",
    "complete_summation",
    "summation_residuals",
    "etd_euler",
    "etdrk2",
    "etdrk4",
    "etd_ab_weights",
    "etd_am_weights",
    "build_abnorsett",
    "build_pec",
    "build_pecec",
    "lawson4",
    "ablawson4",
    "build_gen_lawson",
    "load_tableau_file",
    "SchemeInfo",
    "REGISTRY",
    "get_scheme",
    "list_schemes",
]

MAX_STAGES = 12
MAX_STEPS = 8

_ZERO = PhiExpr()


def _zero_grid(rows: int, cols: int) -> tuple:
    return tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows))


@dataclass
class Tableau:
    """Coefficients of one exponential general linear method.

    A[i][j], B[i], U[i][j], V[j] hold PhiExpr entries (index 0 = stage 1 /
    newest history value); a None entry marks a slot awaiting
    complete_summation.  stage_source optionally redirects the propagator
    of a stage: source j means stage i is built from e^{(C_i - C_j) h L}
    v^j with the row coefficients in stage_source_coeffs, reproducing
    formulas that chain one stage from another instead of from u^n.

    precompute keeps its symbolic lowering on the object, so a tableau
    must not be modified once it has been precomputed;
    dataclasses.replace gives a modified copy, which lowers afresh.
    """

    name: str
    order: int
    stages: int
    steps: int
    C: tuple
    A: tuple
    B: tuple
    U: tuple = ()
    V: tuple = ()
    satisfies_summation: bool = True
    stage_source: dict = field(default_factory=dict)
    stage_source_coeffs: dict = field(default_factory=dict)
    # integrator.precompute's h-independent lowering of this object, made
    # on its first precompute; dataclasses.replace copies start without it
    _lowered: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s, q = self.stages, self.steps
        if not 1 <= s <= MAX_STAGES:
            raise ValueError(f"stages must be in [1, {MAX_STAGES}], got {s}")
        if not 1 <= q <= MAX_STEPS:
            raise ValueError(f"steps must be in [1, {MAX_STEPS}], got {q}")
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        self.C = tuple(Fraction(c) for c in self.C)
        if len(self.C) != s:
            raise ValueError(f"C must have one node per stage ({s}), got {len(self.C)}")
        if self.C[0] != 0:
            raise ValueError(f"stage 1 is u^n itself, so C[0] must be 0, got {self.C[0]}")
        if not self.U:
            self.U = _zero_grid(s, q - 1)
        if not self.V:
            self.V = tuple(_ZERO for _ in range(q - 1))
        self.A = tuple(tuple(row) for row in self.A)
        self.U = tuple(tuple(row) for row in self.U)
        self.B = tuple(self.B)
        self.V = tuple(self.V)
        if len(self.A) != s or any(len(row) != s for row in self.A):
            raise ValueError(f"A must be {s}x{s}")
        if len(self.B) != s:
            raise ValueError(f"B must have {s} entries")
        if len(self.U) != s or any(len(row) != q - 1 for row in self.U):
            raise ValueError(f"U must be {s}x{q - 1}")
        if len(self.V) != q - 1:
            raise ValueError(f"V must have {q - 1} entries")
        for i in range(s):
            for j in range(s):
                e = self.A[i][j]
                if j >= i and e is not None and not e.is_zero():
                    raise ValueError(f"A[{i + 1}][{j + 1}] must be zero: stages are explicit")
                if e is None and j != 0:
                    raise ValueError(f"A[{i + 1}][{j + 1}] cannot await summation: not in column 1")
        for i in range(s):
            for j in range(q - 1):
                if self.U[i][j] is None:
                    raise ValueError(f"U[{i + 1}][{j + 1}] cannot await summation")
                if i == 0 and not self.U[i][j].is_zero():
                    raise ValueError(f"U[1][{j + 1}] must be zero: stage 1 is u^n itself")
        if any(v is None for v in self.V):
            raise ValueError("V entries cannot await summation")
        if any(b is None for b in self.B[1:]):
            raise ValueError("only B[1] may await summation")
        for i, j in self.stage_source.items():
            if not (2 <= i <= s and 1 <= j < i):
                raise ValueError(f"stage source {i} <- {j} out of range")
        for (i, j) in self.stage_source_coeffs:
            if i not in self.stage_source or not 1 <= j < i:
                raise ValueError(f"source coefficient ({i},{j}) without a stage source")

    @property
    def is_complete(self) -> bool:
        return self.B[0] is not None and all(row[0] is not None for row in self.A)

    def coefficients_equal(self, other: "Tableau") -> bool:
        """Structural equality of the merged coefficients (names aside)."""
        return (
            (self.order, self.stages, self.steps, self.C)
            == (other.order, other.stages, other.steps, other.C)
            and self.A == other.A
            and self.B == other.B
            and self.U == other.U
            and self.V == other.V
        )


def summation_residuals(t: Tableau) -> list[PhiExpr]:
    """B-row and per-stage residuals of the summation property (zero exprs
    when the property holds symbolically)."""
    if not t.is_complete:
        raise ValueError("tableau has unfilled slots; run complete_summation first")
    res = [sum(t.B, _ZERO) + sum(t.V, _ZERO) - phi(1)]
    for i in range(1, t.stages):
        row = sum(t.A[i], _ZERO) + sum(t.U[i], _ZERO) - psi(1, t.C[i])
        res.append(row)
    return res


def complete_summation(t: Tableau) -> Tableau:
    """Fill B[1] and first-column A entries from the summation property."""
    if not t.satisfies_summation:
        raise ValueError(f"{t.name} does not satisfy the summation property")
    B = list(t.B)
    if B[0] is None:
        B[0] = phi(1) - sum(B[1:], _ZERO) - sum(t.V, _ZERO)
    A = [list(row) for row in t.A]
    for i in range(1, t.stages):
        if A[i][0] is None:
            A[i][0] = psi(1, t.C[i]) - sum(A[i][1:], _ZERO) - sum(t.U[i], _ZERO)
    return replace(t, A=tuple(tuple(r) for r in A), B=tuple(B))


# ---------------------------------------------------------------------------
# exact Lagrange machinery for the Adams-type and generalized Lawson weights


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _lagrange_basis(nodes: Sequence[Fraction]) -> list[list[Fraction]]:
    """Monomial coefficients of each Lagrange cardinal polynomial."""
    basis = []
    for i, xi in enumerate(nodes):
        poly = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                poly = _poly_mul(poly, [-xj, Fraction(1)])
                denom *= xi - xj
        basis.append([c / denom for c in poly])
    return basis


def _quadrature(coeffs: Sequence[Fraction], a=1) -> PhiExpr:
    """sum_j c_j j! a^{j+1} phi_{j+1}(a z), which is
    int_0^a e^{(a-t) z} p(t) dt for the polynomial p(t) = sum_j c_j t^j."""
    return sum((phi(j + 1, c * math.factorial(j) * a ** (j + 1), a)
                for j, c in enumerate(coeffs) if c != 0), _ZERO)


def _etd_weights(nodes: Sequence[Fraction]) -> list[PhiExpr]:
    """Exponential quadrature weights over [t_n, t_n + h] for the given
    interpolation nodes (in units of h, relative to t_n)."""
    return [_quadrature(coeffs) for coeffs in _lagrange_basis(nodes)]


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


# ---------------------------------------------------------------------------
# catalog builders


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


def _adams(order: int, corrections: int) -> Tableau:
    """The ETD Adams scheme of the given order p: Adams-Bashforth with no
    corrections; else the AB(p-1) predictor is stage 2 and the AM(p)
    corrector runs once per later stage and once more in the output (one
    correction gives PEC, two give PECEC)."""
    s, q = corrections + 1, order - (corrections > 0)
    ab = etd_ab_weights(q)[1]  # the AB(q) weights of N(u^{n-1}), ..., N(u^{n-q+1})
    A = [[_ZERO] * s for _ in range(s)]
    U = [tuple(_ZERO for _ in range(q - 1))] * s
    B, V = [None] + [_ZERO] * (s - 1), ab
    if corrections:
        am = etd_am_weights(order)
        A[1][0], U[1] = None, ab
        for i in range(2, s):
            A[i][0], A[i][i - 1], U[i] = None, am[0], am[2:]
        B[-1], V = am[0], am[2:]
    name = f"p{'ec' * corrections}{order}{s}{q}" if corrections else f"abnorsett{order}"
    return complete_summation(Tableau(name=name, order=order, stages=s, steps=q,
                                      C=(0,) + (1,) * corrections, A=A, B=B, U=U, V=V))


def build_abnorsett(q: int) -> Tableau:
    """ETD Adams-Bashforth scheme of order q (one stage, q steps)."""
    if not 4 <= q <= 6:
        raise ValueError(f"order must be in [4, 6], got {q}")
    return _adams(q, 0)


def build_pec(p: int) -> Tableau:
    """Predict-evaluate-correct scheme of order p: ETD Adams-Bashforth of
    order p-1 predicts, the order-p ETD Adams-Moulton corrects once."""
    if not 4 <= p <= 7:
        raise ValueError(f"order must be in [4, 7], got {p}")
    return _adams(p, 1)


def build_pecec(p: int) -> Tableau:
    """Like build_pec but with the corrector applied twice (PECEC)."""
    if not 4 <= p <= 7:
        raise ValueError(f"order must be in [4, 7], got {p}")
    return _adams(p, 2)


def _transformed_rk4(name: str, order: int, first: Sequence[PhiExpr],
                     U: tuple = (), V: tuple = (), summation: bool = True) -> Tableau:
    """Classical RK4 on an exponentially transformed variable.

    The skeleton is the same for every transform: C = (0, 1/2, 1/2, 1),
    A32 = 1/2, A43 = e^{z/2}, B2 = B3 = e^{z/2}/3 and B4 = 1/6.  first is
    (A21, A31, A41, B1), and the history columns U, V (one per past
    value) give the steps.
    """
    half = Fraction(1, 2)
    a21, a31, a41, b1 = first
    third = exp_term(Fraction(1, 3), half)
    return Tableau(
        name=name, order=order, stages=4, steps=len(V) + 1,
        C=(0, half, half, 1),
        A=(
            (_ZERO, _ZERO, _ZERO, _ZERO),
            (a21, _ZERO, _ZERO, _ZERO),
            (a31, const_term(half), _ZERO, _ZERO),
            (a41, _ZERO, exp_term(1, half), _ZERO),
        ),
        B=(b1, third, third, const_term(Fraction(1, 6))),
        U=U, V=V, satisfies_summation=summation,
    )


def lawson4() -> Tableau:
    """Lawson's integrating-factor RK4: classical RK4 applied to the
    exponentially transformed variable e^{-Lt} u."""
    half = Fraction(1, 2)
    return _transformed_rk4(
        "lawson4", 4, (exp_term(half, half), _ZERO, _ZERO, exp_term(Fraction(1, 6), 1)),
        summation=False,
    )


def ablawson4() -> Tableau:
    """Integrating-factor Adams-Bashforth 4: classical AB4 weights (the
    ETD weights at z = 0) carried through the exponential transform."""
    b1, hist = etd_ab_weights(4)
    weights = [exp_term(w.at_zero(), m + 1) for m, w in enumerate((b1, *hist))]
    return Tableau(
        name="ablawson4", order=4, stages=1, steps=4, C=(0,), A=((_ZERO,),),
        B=weights[:1], V=weights[1:], satisfies_summation=False,
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

    def column(coeffs: list) -> tuple:  # column m of stage 2, stage 3, stage 4, output
        mid, end = (sum((c * theta**j for j, c in enumerate(coeffs)), Fraction(0))
                    for theta in (half, Fraction(1)))
        w_half, w_full = _quadrature(coeffs, half), _quadrature(coeffs, Fraction(1))
        return (w_half, w_half - const_term(mid / 2), w_full - exp_term(mid, half),
                w_full - exp_term(mid * Fraction(2, 3), half) - const_term(end / 6))

    rows = list(zip(*map(column, _lagrange_basis([Fraction(-m) for m in range(q + 1)]))))
    return _transformed_rk4(
        f"genlawson4{q}", max(4, q + 1), [row[0] for row in rows],
        U=((_ZERO,) * q, *(row[1:] for row in rows[:3])), V=rows[3][1:],
    )


# ---------------------------------------------------------------------------
# tableau files

_HEADER_KEYS = {"name", "order", "stages", "steps", "c", "summation"}
_TERM_RE = re.compile(
    r"""^(?:(?P<coeff>[+-]?[\d./eE+-]+)\s*\*\s*)?      # optional coefficient
         (?:(?P<kind>phi(?P<index>\d+)|exp)\s*\(\s*
            (?:(?P<scale>[+-]?[\d./eE+-]+)\s*\*\s*)?z\s*\)
          | (?P<const>[+-]?[\d./eE+-]+))$""",
    re.VERBOSE,
)


def _parse_rational(text: str, lineno: int):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TableauFileError(f"line {lineno}: not a rational number: {text!r}")


def _parse_expr(text: str, lineno: int) -> PhiExpr:
    # split into signed terms at top level (no parentheses nesting in the grammar)
    src = text.strip()
    if not src:
        raise TableauFileError(f"line {lineno}: empty coefficient expression")
    pieces = re.split(r"(?<![eE*(/+-])\s*([+-])\s*", " " + src)
    # pieces: ['', maybe sign, term, sign, term, ...]
    terms, sign = [], 1
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if piece == "+":
            continue
        if piece == "-":
            sign = -sign
            continue
        m = _TERM_RE.match(piece)
        if not m:
            raise TableauFileError(f"line {lineno}: cannot parse term {piece!r}")
        coeff = sign * _parse_rational(m.group("coeff") or "1", lineno)
        sign = 1
        try:  # PhiTerm rejects an index above MAX_INDEX and a zero scale
            if m.group("const") is not None:
                terms.append(const_term(coeff * _parse_rational(m.group("const"), lineno)))
            else:
                scale = _parse_rational(m.group("scale") or "1", lineno)
                if m.group("kind") == "exp":
                    terms.append(exp_term(coeff, scale))
                else:
                    terms.append(phi(int(m.group("index")), coeff, scale))
        except ValueError as exc:
            raise TableauFileError(f"line {lineno}: {exc}") from None
    return sum(terms, _ZERO)


_SLOT_RE = re.compile(r"^(?P<mat>[ABUV])\s*\[\s*(?P<i>\d+)\s*\](?:\s*\[\s*(?P<j>\d+)\s*\])?$")


def _header_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise TableauFileError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def load_tableau_file(path) -> Tableau:
    """Parse a plain-text tableau file.

    Grammar (one statement per line, '#' starts a comment)::

        name: MyScheme            # header fields, any order, before entries
        order: 4
        stages: 4
        steps: 1
        summation: yes            # optional, default yes
        C: 0 1/2 1/2 1
        A[3][2] = 0.5*phi1(0.5*z) # entries: sums of c, c*phi{l}(a*z),
        B[2] = 2*phi2(z)-4*phi3(z)#          c*exp(a*z); rationals or decimals
        B[1] = sum                # slot filled from the summation property
        V[1] = -59/24*exp(2*z)

    Unlisted entries are zero.  Raises TableauFileError with the offending
    line number on malformed input.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    headers: dict = {}
    entries: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "=" not in line:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key not in _HEADER_KEYS:
                raise TableauFileError(f"line {lineno}: unknown header {key!r}")
            headers[key] = (value.strip(), lineno)
            continue
        if "=" in line:
            slot, _, value = line.partition("=")
            m = _SLOT_RE.match(slot.strip())
            if not m:
                raise TableauFileError(f"line {lineno}: bad entry slot {slot.strip()!r}")
            entries.append((m, value.strip(), lineno))
            continue
        raise TableauFileError(f"line {lineno}: expected 'key: value' or 'SLOT = expr'")

    for required in ("name", "order", "stages", "steps", "c"):
        if required not in headers:
            raise TableauFileError(f"missing required header {required!r}")
    name = headers["name"][0]
    order, s, q = (_header_int(key, *headers[key]) for key in ("order", "stages", "steps"))
    summation = True
    if "summation" in headers:
        val, lineno = headers["summation"]
        if val.lower() not in ("yes", "no", "true", "false"):
            raise TableauFileError(f"line {lineno}: summation must be yes or no")
        summation = val.lower() in ("yes", "true")
    cval, clineno = headers["c"]
    C = tuple(_parse_rational(tok, clineno) for tok in cval.split())
    if len(C) != s:
        raise TableauFileError(f"line {clineno}: C needs {s} nodes, got {len(C)}")

    A = [[_ZERO] * s for _ in range(s)]
    B: list = [_ZERO] * s
    U = [[_ZERO] * (q - 1) for _ in range(s)]
    V: list = [_ZERO] * (q - 1)
    for m, value, lineno in entries:
        mat = m.group("mat")
        i = int(m.group("i"))
        j = int(m.group("j")) if m.group("j") else None
        filled = None if value.strip().lower() == "sum" else _parse_expr(value, lineno)
        if filled is None and not summation:
            raise TableauFileError(
                f"line {lineno}: 'sum' needs the summation property (summation: yes)"
            )
        if mat in ("A", "U") and j is None or mat in ("B", "V") and j is not None:
            raise TableauFileError(f"line {lineno}: wrong number of indices for {mat}")
        try:
            if mat == "A":
                if not (1 <= j < i <= s):
                    raise TableauFileError(
                        f"line {lineno}: A[{i}][{j}] outside the strictly lower triangle"
                    )
                A[i - 1][j - 1] = filled
            elif mat == "B":
                if not 1 <= i <= s:
                    raise IndexError
                B[i - 1] = filled
            elif mat == "U":
                if not (2 <= i <= s and 1 <= j <= q - 1):
                    raise IndexError
                U[i - 1][j - 1] = filled
            else:
                if not 1 <= i <= q - 1:
                    raise IndexError
                V[i - 1] = filled
        except IndexError:
            raise TableauFileError(f"line {lineno}: {mat} index out of range")
        if filled is None and not (mat == "B" and i == 1 or mat == "A" and j == 1):
            raise TableauFileError(f"line {lineno}: only B[1] and A[i][1] support 'sum'")

    try:
        t = Tableau(
            name=name, order=order, stages=s, steps=q, C=C,
            A=tuple(tuple(r) for r in A), B=tuple(B),
            U=tuple(tuple(r) for r in U), V=tuple(V),
            satisfies_summation=summation,
        )
        if not t.is_complete:
            t = complete_summation(t)
    except ValueError as exc:
        raise TableauFileError(str(exc))
    if summation:
        bad = [e for e in summation_residuals(t) if not e.is_zero()]
        if bad:
            raise TableauFileError(
                f"{name}: declared summation property does not hold ({bad[0]!r})"
            )
    return t


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SchemeInfo:
    """Catalog row: how to display a scheme and how to build/run it.

    order, stages and steps are read from the scheme's tableau.
    """

    name: str
    display: str
    family: str
    build: Callable[[], Tableau]

    @property
    def order(self) -> int:
        return self.tableau().order

    @property
    def stages(self) -> int:
        return self.tableau().stages

    @property
    def steps(self) -> int:
        """The paper's q; GenLawson4q's tableau keeps q + 1 values."""
        return self.tableau().steps - (self.family == "Gen. Lawson")

    @property
    def engine(self) -> str:
        # Every scheme runs on the tableau engine.  This tag only keeps the
        # generalized Lawson rows apart for the frozen acceptance check of
        # the 16 classical tableau reductions.
        return "genlawson" if self.family == "Gen. Lawson" else "tableau"

    def tableau(self) -> Tableau:
        """The scheme's tableau, built on the first call.

        Every call returns the same object, so callers must not modify
        it (dataclasses.replace gives a modified copy).
        """
        with _BUILT_LOCK:
            if self.build not in _BUILT:
                _BUILT[self.build] = self.build()
            return _BUILT[self.build]


# tableaux by the builder that made them: exact-rational construction
# takes milliseconds, and a sweep asks once per (scheme, h)
_BUILT: dict = {}
_BUILT_LOCK = threading.Lock()


def _registry() -> dict[str, SchemeInfo]:
    rk, pc = "ETD Runge–Kutta", "Exp. Predictor-Corrector"
    rows = [
        SchemeInfo("etdeuler", "ETD Euler", rk, etd_euler),
        SchemeInfo("etdrk2", "ETDRK2", rk, etdrk2),
        SchemeInfo("etdrk4", "ETDRK4", rk, etdrk4),
        *(SchemeInfo(f"abnorsett{q}", f"ABNørsett{q}", "ETD Adams–Bashforth",
                     partial(build_abnorsett, q)) for q in (4, 5, 6)),
        SchemeInfo("ablawson4", "ABLawson4", "Lawson", ablawson4),
        SchemeInfo("lawson4", "Lawson4", "Lawson", lawson4),
        *(SchemeInfo(f"genlawson4{q}", f"GenLawson4{q}", "Gen. Lawson",
                     partial(build_gen_lawson, q)) for q in range(1, 6)),
    ]
    for p in (4, 5, 6, 7):
        rows += [SchemeInfo(f"pec{p}2{p - 1}", f"PEC{p}2{p - 1}", pc, partial(build_pec, p)),
                 SchemeInfo(f"pecec{p}3{p - 1}", f"PECEC{p}3{p - 1}", pc, partial(build_pecec, p))]
    return {row.name: row for row in rows}


REGISTRY: dict[str, SchemeInfo] = _registry()


def get_scheme(name: str) -> SchemeInfo:
    """Look up a catalog scheme by its lowercase registry name."""
    key = name.lower()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[key]


def list_schemes() -> list[SchemeInfo]:
    return list(REGISTRY.values())
