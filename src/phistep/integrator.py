"""Time-stepping engine for exponential general linear methods.

The step update is

    u^{n+1} = e^{hL} u^n + h sum_i B_i(hL) N(v^i) + h sum_j V_j(hL) N(u^{n-j})

with internal stages

    v^i = e^{C_i hL} u^n + h sum_{j<i} A_ij(hL) N(v^j) + h sum_j U_ij(hL) N(u^{n-j})

where L is diagonal in coefficient space.  `precompute` lowers a tableau
once per (tableau, h, L) into a row program: one row per stage 2..s and
one for the output, each a propagator times a source (u^n or an earlier
stage) plus a fixed list of coefficient-weighted values.  Stepping runs
that program: s nonlinear evaluations (2s transforms) plus elementwise
arithmetic.  Every catalog scheme runs on this one loop: Runge-Kutta,
multistep, predictor-corrector and (generalized) Lawson schemes alike,
including stage-source overrides (a stage propagated from an earlier
stage rather than from u^n, as in the fourth stage of ETDRK4).

Each row is stepped in difference form: N(v^1) = N(u^n) is multiplied
by the row sum of its coefficients, and every other nonlinear value
enters as its coefficient times (value - N(u^n)).  This is the same
method in exact arithmetic, but at an equilibrium every difference is
exactly zero, so schemes with the summation property keep fixed points
to rounding instead of summing large cancelling terms.

A run steps in place: `integrate` gives `step` one `_StepWork` for the
whole loop, whose buffers are allocated once and whose one evaluator
writes every nonlinear value into a buffer.  `_run_row` is the one
reader of a row, and it adds every term through `_add_term`, which
rounds exactly as acc + h * (coeff * value), so buffered and fresh
stepping give the same bits.  The price is aliasing, under one rule: a
state returned by a workspace step stays intact through the next step;
the step after may reuse its arrays.  So integrate copies every
snapshot, and a `step` call without a workspace allocates fresh
buffers.

Multistep schemes are started by the fixed-point procedure
`start_multistep`: q - 1 ETDRK2 steps, then iterations of

    u^j = e^{jhL} u^0 + h sum_l gamma_l(j, hL) Delta^l N(u^0)

with forward differences Delta^l taken over the current iterate's
nonlinear values, stopping when successive iterates agree to a relative
max-norm below h^q.  The map is q - 1 rows of the same form, which
`_run_row` runs in buffers allocated once.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import UnstableError
from .phifun import KeyedDiagonal, PhiExpr, eval_phi_exprs, exp_term, gamma_table
from .tableau import SchemeInfo, Tableau, get_scheme

__all__ = [
    "PrecomputedScheme",
    "SimState",
    "StarterResult",
    "IntegrationResult",
    "Snapshot",
    "ScalarProbe",
    "precompute",
    "prepare_scheme",
    "step",
    "start_multistep",
    "integrate",
    "run_scalar_probe",
    "empirical_order",
    "MAX_AMPLIFICATION",
    "MAX_STARTER_ITERATIONS",
]

# a field whose max-norm exceeds this multiple of its initial value is
# declared unstable even before overflow produces non-finite entries
MAX_AMPLIFICATION = 1e10
MAX_STARTER_ITERATIONS = 50
# successive starter iterates this close (relative max-norm) are at the
# rounding floor; stopping there counts as converged even if h^q is smaller
STARTER_FLOOR = 1e-14


@dataclass(frozen=True)
class SimState:
    """The integration state after `step` completed steps of size h.

    nonlinear holds the nonlinear values a q-step scheme reads, newest
    first: (N(u^n), N(u^{n-1}), ..., N(u^{n-q+1})); a one-step scheme
    reads none, and its steps return it empty.
    """

    coeffs: np.ndarray
    time: float
    step: int
    nonlinear: tuple = ()
    initial_norm: float = 0.0


def _max_norm(arr: np.ndarray, scratch: Optional[np.ndarray] = None) -> float:
    """max |arr|, with the moduli written to scratch when given."""
    return float(np.abs(arr, scratch).max())


def _check_stable(coeffs: np.ndarray, time: float, step: int, initial_norm: float,
                  scratch: np.ndarray) -> float:
    """max |coeffs| (moduli in scratch); UnstableError at step and time
    if it is not finite or exceeds MAX_AMPLIFICATION * initial_norm > 0."""
    top = _max_norm(coeffs, scratch)
    if not math.isfinite(top):
        raise UnstableError(
            f"non-finite field after step {step} (t = {time:.6g})", time=time, step=step
        )
    if initial_norm > 0 and top > MAX_AMPLIFICATION * initial_norm:
        raise UnstableError(
            f"field grew by {top / initial_norm:.3g}x after step {step} "
            f"(t = {time:.6g})", time=time, step=step,
        )
    return top


# ---------------------------------------------------------------------------
# tableau engine


@dataclass(frozen=True)
class PrecomputedScheme:
    """A tableau lowered over the diagonal h*L into a row program.

    Stepping reads only its name, its step h, steps (q, the nonlinear
    values a state carries) and rows, which holds one (propagator,
    source, terms) row per stage 2..s, then one for the output, so s is
    len(rows).  A row starts from propagator times sources[source],
    where the sources are u^n, v^2, ..., v^s, so a stage-source
    override is a row whose source is not 0.  terms is a tuple of
    (coeff, operand) pairs in the order: the row sum, then the A or B
    terms by ascending j, then the U or V terms.  The operands are
    N(u^n) (index 0), the q - 1 history differences N(u^{n-j}) - N(u^n)
    (index j), then the stage differences N(v^j) - N(u^n) (index
    q + j - 2).  Stage 1's weight enters only through the row sum, and
    zero slots have no term.

    Coefficient arrays are the bare weight functions (not premultiplied
    by h); `step` supplies the factor h.  They are the read-only arrays
    of the phi cache, as eval_phi_exprs returns them: float64 over a real
    diagonal with real weights, complex128 otherwise.
    """

    name: str
    h: float
    steps: int
    rows: tuple


def _lowering(tableau: Tableau) -> tuple:
    """The h-independent half of precompute: (exprs, program).

    exprs lists the distinct PhiExprs of the row program in the order
    they are first needed; program holds one (propagator, source, terms)
    row per stage 2..s and one for the output, with the propagator and
    every term's coefficient given as an index into exprs.  Each row's
    sum stands in for its first-column entry, and zero slots are dropped.
    Built on a tableau's first precompute and kept on the object, so
    later step sizes only evaluate it (threads that lower one tableau at
    once build equal lowerings, and either may be kept).
    """
    lowered = tableau._lowered
    if lowered is not None:
        return lowered
    exprs: dict = {}

    def ev(expr: PhiExpr) -> int:
        # equal expressions (e.g. psi_{1,1/2} in several rows) share one array
        return exprs.setdefault(expr, len(exprs))

    s, q = tableau.stages, tableau.steps
    zero = PhiExpr()

    def row(c: Fraction, source: int, stage: dict, past: Sequence[PhiExpr]) -> tuple:
        # stage maps j to the weight of N(v^j), past lists the weights of
        # N(u^{n-1}), ..., N(u^{n-q+1})
        total = sum(stage.values(), zero) + sum(past, zero)
        terms = [] if total.is_zero() else [(ev(total), 0)]
        terms += [(ev(e), q + j - 2) for j, e in sorted(stage.items())
                  if j > 1 and not e.is_zero()]
        terms += [(ev(e), j) for j, e in enumerate(past, start=1) if not e.is_zero()]
        return ev(exp_term(1, c)), source, tuple(terms)

    program = []
    for i in range(2, s + 1):
        c, src = tableau.C[i - 1], tableau.stage_source.get(i)
        if src is None:
            src, stage = 1, dict(enumerate(tableau.A[i - 1][: i - 1], start=1))
        else:
            c -= tableau.C[src - 1]
            stage = {j: e for (si, j), e in tableau.stage_source_coeffs.items() if si == i}
        program.append(row(c, src - 1, stage, tableau.U[i - 1]))
    program.append(row(Fraction(1), 0, dict(enumerate(tableau.B, start=1)), tableau.V))
    tableau._lowered = lowered = (tuple(exprs), tuple(program))
    return lowered


def precompute(tableau: Tableau, h: float, lam) -> PrecomputedScheme:
    """Lower the tableau at h*lam into the row program of PrecomputedScheme.

    The symbolic half of the lowering depends on the tableau alone and is
    done once per tableau object (_lowering); each call evaluates its
    distinct expressions at h*lam.  h*lam is keyed (converted to complex
    and digested) once, and all the expressions go through one
    eval_phi_exprs call, which takes the uncached ones' phi terms from
    one phifun._rows pass per argument scale (two for ETDRK4: phi_1..phi_3
    at h*lam, phi_1 at h*lam/2); the arrays are those of term-by-term
    evaluation, bit for bit.  lam may also be a KeyedDiagonal, which
    must then hold h*lam already (integrate builds one for the scheme
    and its starter).  Requires a complete
    tableau (summation property filled in, or a scheme exempt from it);
    h must be positive and finite.  Deterministic for fixed inputs.
    """
    if not tableau.is_complete:
        raise ValueError(f"tableau {tableau.name!r} has unfilled slots; "
                         "complete the summation property first")
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    diag = lam if isinstance(lam, KeyedDiagonal) else KeyedDiagonal(h * np.asarray(lam))
    exprs, program = _lowering(tableau)
    arrays = eval_phi_exprs(exprs, diag)
    rows = tuple(
        (arrays[propagator], source, tuple((arrays[c], operand) for c, operand in terms))
        for propagator, source, terms in program)
    return PrecomputedScheme(name=tableau.name, h=h, steps=tableau.steps, rows=rows)


def _add_term(acc: np.ndarray, h: np.ndarray, coeff: np.ndarray, value: np.ndarray,
              product: np.ndarray) -> None:
    """acc += h * (coeff * value), rounded as written, through product:
    product = coeff * value; product *= h; acc += product, the operations
    of the fresh expression in its order, with h the complex128 scalar
    numpy would convert it to.  The output arrays are passed
    positionally: numpy parses them faster than out= keywords, which
    matters on small fields."""
    np.multiply(coeff, value, product)
    np.multiply(product, h, product)
    np.add(acc, product, acc)


def _run_row(acc: np.ndarray, row: tuple, sources: Sequence[np.ndarray],
             operands: Sequence[np.ndarray], h: np.ndarray, product: np.ndarray) -> None:
    """acc = propagator * sources[source] plus the row's terms, each added
    by _add_term: the one reading of a (propagator, source, terms) row."""
    propagator, source, terms = row
    np.multiply(propagator, sources[source], acc)
    for coeff, operand in terms:
        _add_term(acc, h, coeff, operands[operand], product)


def _copying_evaluator(system) -> Callable:
    """nonlinear_into for a system that only has nonlinear: a copy of its
    new array into out (scratch is not needed)."""
    def nonlinear_into(coeffs: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        np.copyto(out, system.nonlinear(coeffs))
        return out
    return nonlinear_into


class _StepWork:
    """The buffers of `step` for one scheme, one coefficient shape and one
    system.

    stages holds the s - 1 stage accumulators v^2..v^s, past the q - 1
    history differences N(u^{n-j}) - N(u^n), operands the buffers of
    N(u^n) (when q = 1) and the s - 1 stage differences N(v^i) - N(u^n),
    product the term being added (and the evaluator's scratch, idle
    during an evaluation), norm a real array for the stability check,
    and outputs and ring the arrays of the states it returns: the step
    that makes state k writes its coefficients into outputs[k % 2] and,
    for q >= 2, N(u^k) into ring[k % (q + 1)] (ring is empty for q = 1).
    State m sits in slot m, so a step never writes its input, and a
    returned state stays intact through the next step; the step after
    may reuse its arrays.  h is the scheme's step as a complex128 scalar
    (_add_term).  The fields are complex128, shaped like the state's
    coefficients.  evaluate(coeffs, out, scratch) is the one nonlinear
    evaluation of the loop: system.nonlinear_into when the system has
    it, else _copying_evaluator(system).  A workspace belongs to one
    stepping loop in one thread; a state that must outlive the next step
    is copied first.
    """

    __slots__ = ("stages", "past", "operands", "product", "outputs", "ring", "norm", "h", "evaluate")

    def __init__(self, scheme: PrecomputedScheme, shape: tuple, system):
        def field() -> np.ndarray:
            return np.empty(shape, dtype=np.complex128)

        s, q = len(scheme.rows), scheme.steps
        self.stages = [field() for _ in range(s - 1)]
        self.past = [field() for _ in range(q - 1)]
        # N(u^n) of a multistep scheme comes with the state
        self.operands = [field() for _ in range(s - (q > 1))]
        self.product = field()
        self.outputs = (field(), field())
        self.ring = tuple(field() for _ in range(q + 1 if q > 1 else 0))
        self.norm = np.empty(shape, dtype=np.float64)
        self.h = np.array(complex(scheme.h))
        self.evaluate = getattr(system, "nonlinear_into", None) or _copying_evaluator(system)


def step(state: SimState, scheme: PrecomputedScheme, system, *,
         work: Optional[_StepWork] = None) -> SimState:
    """Advance one step with a precomputed tableau scheme.

    Evaluates the nonlinearity once per stage; for schemes with history
    (q >= 2) the first stage reuses the stored N(u^n), and the evaluation
    at the new solution goes into the workspace's ring, keeping the total
    at s evaluations (2s transforms) per step.  The rows of scheme.rows
    run in order through _run_row, each into its stage accumulator and
    the last into the output array.  Their operands are N(u^n), the
    history differences, then each stage's N(v^i) - N(u^n): work.evaluate
    writes N(u^n) (q = 1) and each N(v^i) into work.operands, where the
    difference is formed in place.

    Without work, fresh buffers are allocated for this system and the
    returned state owns its arrays.  With work (integrate passes one per
    run; it must match the scheme, the system and the shape of
    state.coeffs and serve one loop in one thread), the new state's
    arrays are the workspace's slots for step state.step + 1 (_StepWork):
    the state stays intact through the next step, and the step after may
    reuse its arrays.
    """
    q = scheme.steps
    if q > 1 and len(state.nonlinear) < q:
        raise ValueError(f"{scheme.name} needs {q} nonlinear values, N(u^n) and {q - 1} "
                         "past nonlinear values; run the starting procedure first")
    h = scheme.h
    u = state.coeffs
    if work is None:
        work = _StepWork(scheme, u.shape, system)
    evaluate, product = work.evaluate, work.product
    buffers = iter(work.operands)
    nl_now = state.nonlinear[0] if q > 1 else evaluate(u, next(buffers), product)
    for value, diff in zip(state.nonlinear[1:q], work.past):
        np.subtract(value, nl_now, diff)
    operands = [nl_now, *work.past]
    sources = (u, *work.stages)
    new_step = state.step + 1
    out = work.outputs[new_step % 2]
    for acc, row in zip((*work.stages, out), scheme.rows):
        _run_row(acc, row, sources, operands, work.h, product)
        if acc is not out:
            nl = evaluate(acc, next(buffers), product)
            np.subtract(nl, nl_now, nl)
            operands.append(nl)
    new_time = state.time + h
    _check_stable(out, new_time, new_step, state.initial_norm, work.norm)
    nonlinear = ()
    if q > 1:
        nonlinear = (evaluate(out, work.ring[new_step % (q + 1)], product),
                     *state.nonlinear[: q - 1])
    return SimState(coeffs=out, time=new_time, step=new_step, nonlinear=nonlinear,
                    initial_norm=state.initial_norm)


# ---------------------------------------------------------------------------
# scheme preparation


SchemeLike = Union[str, SchemeInfo, Tableau]


def _tableau_of(scheme: SchemeLike) -> Tableau:
    if isinstance(scheme, Tableau):
        return scheme
    info = get_scheme(scheme) if isinstance(scheme, str) else scheme
    if not isinstance(info, SchemeInfo):
        raise TypeError(f"cannot prepare a scheme from {type(scheme).__name__}")
    return info.tableau()


def prepare_scheme(scheme: SchemeLike, h: float, lam):
    """Resolve a scheme name, registry entry, or explicit tableau into a
    precomputed step engine; lam is as in precompute."""
    return precompute(_tableau_of(scheme), h, lam)


def snap_step(h: float, T: float) -> tuple:
    """(nsteps, T / nsteps): the number of steps spanning T at a step near
    h, and the step snapped to it, so that T is an exact multiple.  h
    must be positive and finite."""
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    nsteps = max(1, math.ceil(T / h - 1e-9))
    return nsteps, T / nsteps


def require_steps(tableau: Tableau, h: float, T: float) -> tuple:
    """snap_step(h, T), checked to leave room for q - 1 starting values."""
    nsteps, snapped = snap_step(h, T)
    if nsteps < tableau.steps - 1:
        raise ValueError(f"{tableau.name} needs at least {tableau.steps - 1} steps "
                         f"but h={h:g} gives only {nsteps} over T={T:g}")
    return nsteps, snapped


# ---------------------------------------------------------------------------
# multistep starting procedure


@dataclass(frozen=True)
class StarterResult:
    """Starting values u^0..u^{q-1} and a stepping-ready state at step q-1."""

    state: SimState
    states: tuple
    converged: bool
    iterations: int


def start_multistep(
    q: int,
    h: float,
    system,
    u0: np.ndarray,
    *,
    delta0_state: bool = False,
    initial_norm: Optional[float] = None,
    diag: Optional[KeyedDiagonal] = None,
) -> StarterResult:
    """Compute starting values u^1..u^{q-1} for a q-step scheme.

    Takes q - 1 ETDRK2 steps, then iterates the fixed-point map

        u^j = e^{jhL} u^0 + h sum_{l<q} gamma_l(j, hL) Delta^l N(u^0)

    where the forward differences run over the current iterate's
    nonlinear values.  Stops when successive iterates agree to a
    relative max-norm below h^q (or the rounding floor), or after 50
    iterations with converged=False.  Each new iterate u^j passes the
    step's stability check at step j, t = j*h (its max-norm is the
    iterate's scale), so UnstableError names the first iterate that fails.

    The map is q - 1 rows (e^{jhL}, source u^0, terms (gamma_l(j, hL), l))
    run by _run_row in buffers allocated once: operand l is
    Delta^l N(u^0), formed in place from the top index down, the new
    iterates go into q - 1 buffers that swap with the old ones, and the
    ETDRK2 steps' workspace lends its evaluator, product and norm
    arrays.  The returned arrays are the starter's own.

    diag is h*system.lam keyed once (integrate passes the one it keyed
    for the scheme), or None to key it here.  The e^{jhL} come from one
    eval_phi_exprs call, each gamma_0..gamma_{q-1}(j, hL) from one cached
    phifun.gamma_table per j, so schemes with the same q at the same h
    (abnorsett4 and genlawson43, or a repeated integration) share tables.

    delta0_state reproduces a printed variant in which the l = 0 term
    uses the state u^0 itself instead of N(u^0) (operand 0 is u^0); it is
    provided for comparison only and is not the default.
    """
    if q < 2:
        raise ValueError(f"starting procedure applies to q >= 2, got q={q}")
    if initial_norm is None:
        initial_norm = _max_norm(u0)
    if diag is None:
        diag = KeyedDiagonal(h * np.asarray(system.lam))

    boot = prepare_scheme("etdrk2", h, diag)
    work = _StepWork(boot, u0.shape, system)
    state = SimState(coeffs=u0, time=0.0, step=0, initial_norm=initial_norm)
    old = []
    for _ in range(q - 1):
        state = step(state, boot, system, work=work)
        old.append(state.coeffs.copy())
    propagators = eval_phi_exprs([exp_term(1, j) for j in range(1, q)], diag)
    rows = [(propagator, 0,
             tuple((gamma, l) for l, gamma in enumerate(gamma_table(q, j, diag))))
            for j, propagator in enumerate(propagators, start=1)]
    evaluate, product, norm = work.evaluate, work.product, work.norm
    nl = [evaluate(u, np.empty_like(product), product) for u in (u0, *old)]
    operands = [u0 if delta0_state else nl[0], *(np.empty_like(product) for _ in old)]
    new = [np.empty_like(product) for _ in old]
    converged, iterations = False, 0
    tol = max(h ** q, STARTER_FLOOR)
    for iterations in range(1, MAX_STARTER_ITERATIONS + 1):
        level = nl
        for l in range(1, q):
            for i in range(q - 1, l - 1, -1):
                np.subtract(level[i], level[i - 1], operands[i])
            level = operands
        for acc, row in zip(new, rows):
            _run_row(acc, row, (u0,), operands, work.h, product)
        scale = max(_check_stable(u, j * h, j, initial_norm, norm) for j, u in enumerate(new, 1))
        change = max(_max_norm(np.subtract(a, b, product), norm) for a, b in zip(new, old))
        old, new = new, old
        for u, out in zip(old, nl[1:]):
            evaluate(u, out, product)
        if scale == 0.0 or change <= tol * scale:
            converged = True
            break
    final = SimState(coeffs=old[-1], time=(q - 1) * h, step=q - 1,
                     nonlinear=tuple(nl[::-1]), initial_norm=initial_norm)
    return StarterResult(state=final, states=(u0, *old), converged=converged,
                         iterations=iterations)


# ---------------------------------------------------------------------------
# full integration


@dataclass(frozen=True)
class Snapshot:
    requested_time: float
    time: float
    step: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class IntegrationResult:
    """Final coefficients plus bookkeeping for one integration.

    seconds and fft_count cover the stepping loop only: coefficient
    precomputation and the multistep starting procedure are excluded
    (fft_total counts everything).  h is the snapped step T/steps.
    """

    u: np.ndarray
    scheme: str
    h: float
    T: float
    steps: int
    seconds: float
    fft_count: int
    fft_total: int
    starter_converged: bool
    starter_iterations: int
    snapshots: tuple = ()


def integrate(
    system,
    scheme: SchemeLike,
    h: float,
    T: float,
    *,
    snapshot_times: Sequence[float] = (),
    delta0_state: bool = False,
) -> IntegrationResult:
    """Integrate u' = L u + N(u) from the system's initial data to time T.

    h is snapped by snap_step, so the horizon is an exact
    multiple of the step (the snapped value is recorded on the result).
    Multistep schemes run the starting procedure first; its cost, like
    coefficient precomputation, is excluded from the reported stepping
    time.  Snapshots are taken at the completed step nearest each
    requested time.  A horizon too short for the starting values, or a
    snapshot time outside [0, T], raises ValueError before any
    coefficient is evaluated.  Instability raises UnstableError carrying
    the failing time.
    """
    from .spectral import install_fft_counter, remove_fft_counter

    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")
    tableau = _tableau_of(scheme)
    nsteps, h = require_steps(tableau, h, T)
    snap_table: dict = {}
    for t in map(float, snapshot_times):
        if not 0 <= t <= T:
            raise ValueError(f"snapshot time {t!r} is outside the horizon [0, {T:g}]")
        snap_table.setdefault(round(t / h), []).append(t)

    cell, token = install_fft_counter()
    try:
        # h*L keyed once for the scheme and the starter
        diag = KeyedDiagonal(h * np.asarray(system.lam))
        engine = prepare_scheme(tableau, h, diag)
        q = engine.steps
        u0 = np.array(system.u0, dtype=complex, copy=True)
        initial_norm = _max_norm(u0)
        snapshots = []

        def record(idx: int, coeffs: np.ndarray) -> None:
            for t_req in snap_table.get(idx, ()):
                snapshots.append(
                    Snapshot(requested_time=t_req, time=idx * h, step=idx,
                             coeffs=np.array(coeffs, copy=True))
                )

        if q > 1:
            starter = start_multistep(q, h, system, u0, delta0_state=delta0_state,
                                      initial_norm=initial_norm, diag=diag)
            state, converged, iterations = starter.state, starter.converged, starter.iterations
            starting = starter.states
            del starter
        else:
            state = SimState(coeffs=u0, time=0.0, step=0, initial_norm=initial_norm)
            starting, converged, iterations = (u0,), True, 0
        for j in range(q):
            record(j, starting[j])
        # set-up data only: neither the copy of h*L nor the starting values
        # are held while stepping (the state keeps what it still needs)
        del diag, starting, u0

        work = _StepWork(engine, state.coeffs.shape, system)
        fft_start = cell[0]
        tic = _time.perf_counter()
        while state.step < nsteps:
            state = step(state, engine, system, work=work)
            if state.step in snap_table:
                record(state.step, state.coeffs)
        seconds = _time.perf_counter() - tic
        fft_count = cell[0] - fft_start
        fft_total = cell[0]
    finally:
        remove_fft_counter(token)

    return IntegrationResult(
        u=state.coeffs, scheme=engine.name, h=h, T=T, steps=nsteps,
        seconds=seconds, fft_count=fft_count, fft_total=fft_total,
        starter_converged=converged, starter_iterations=iterations,
        snapshots=tuple(snapshots),
    )


# ---------------------------------------------------------------------------
# scalar probe


def _square(u: np.ndarray) -> np.ndarray:
    return u * u


@dataclass(frozen=True)
class ScalarProbe:
    """A scalar stiff test problem; the default is u' = -u + u^2 from
    u(0) = 1/2 to T = 1, split as L = -1, N(u) = u^2, whose solution is
    the logistic decay 1/(1 + e^t)."""

    lam: complex = -1.0
    u0: complex = 0.5
    T: float = 1.0
    func: Callable[[np.ndarray], np.ndarray] = _square
    exact: Optional[Callable[[float], complex]] = None

    def solution(self, t: float) -> complex:
        if self.exact is not None:
            return self.exact(t)
        if self.lam != -1.0 or self.func is not _square:
            raise ValueError("non-default probe needs an explicit exact solution")
        ratio = 1.0 / self.u0 - 1.0
        return 1.0 / (1.0 + ratio * math.exp(t))


@dataclass(frozen=True)
class _ProbeSystem:
    lam: np.ndarray
    u0: np.ndarray
    func: Callable
    name: str = "scalar-probe"

    def nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        # a new complex array, whatever func returns
        return np.array(self.func(coeffs), dtype=complex)

    def nonlinear_into(self, coeffs: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
        np.copyto(out, self.func(coeffs))
        return out


def run_scalar_probe(scheme: SchemeLike, probe: Optional[ScalarProbe] = None, h: float = 0.05) -> float:
    """Relative error of one integration of the scalar probe at step h.

    Multistep history is seeded from the probe's exact solution, so the
    returned error reflects the stepping formula alone; the fixed-point
    starting procedure is exercised separately through `start_multistep`
    and `integrate`.
    """
    if probe is None:
        probe = ScalarProbe()
    lam = np.array([probe.lam], dtype=complex)
    system = _ProbeSystem(
        lam=lam,
        u0=np.array([probe.u0], dtype=complex),
        func=probe.func,
    )
    tableau = _tableau_of(scheme)
    nsteps, h = require_steps(tableau, h, probe.T)
    prepared = prepare_scheme(tableau, h, lam)
    q = prepared.steps
    values = [np.array([complex(probe.solution(j * h))]) for j in range(q)]
    nl = [system.nonlinear(v) for v in values]
    state = SimState(
        coeffs=values[-1],
        time=(q - 1) * h,
        step=q - 1,
        nonlinear=tuple(nl[::-1]),
        initial_norm=float(abs(complex(probe.u0))),
    )
    work = _StepWork(prepared, state.coeffs.shape, system)
    while state.step < nsteps:
        state = step(state, prepared, system, work=work)
    want = complex(probe.solution(probe.T))
    return abs(complex(state.coeffs[0]) - want) / abs(want)


def empirical_order(scheme, h_set: Optional[Sequence[float]] = None, probe=None) -> float:
    """Least-squares slope of log error vs log h on a scalar stiff probe.

    scheme may be a registry name, SchemeInfo or Tableau.  The default
    probe is u' = -u + u^2, u(0) = 1/2, T = 1, whose exact solution
    1/(1 + e^t) pins the error; h_set defaults to a geometric ladder sized
    to the declared order so no point sits on the rounding floor.
    """
    if probe is None:
        probe = ScalarProbe()
    if h_set is None:
        top = max(8, 2 * _tableau_of(scheme).order)
        h_set = [probe.T / n for n in (top, 2 * top, 4 * top, 8 * top, 16 * top)]
    errors, steps = [], []
    for h in h_set:
        err = run_scalar_probe(scheme, probe, h)
        if math.isfinite(err) and err > 0:
            errors.append(err)
            steps.append(h)
    if len(errors) < 2:
        raise ValueError("not enough finite error points to estimate an order")
    # The error is measured against the probe's exact solution, so the only
    # contamination is accumulated roundoff; drop points down at that floor.
    pts = [(h, e) for h, e in zip(steps, errors) if e > 1e-13]
    if len(pts) < 2:
        pts = list(zip(steps, errors))
    return _loglog_slope(pts)


def _loglog_slope(points) -> float:
    """Least-squares slope of log(error) against log(h) over (h, error)
    pairs: the convergence order that empirical_order and
    bench.estimate_order report, each over its own points."""
    xs = [math.log(h) for h, _ in points]
    ys = [math.log(e) for _, e in points]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
