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
whole loop, whose buffers are allocated once and whose one evaluation,
bound over its buffers once, writes every nonlinear value into a
buffer.  The workspace fixes the step's row program as a schedule of
ops (`_schedule`) and assigns its fields to buffers by liveness: the
output row starts as soon as u^n is known and adds each term, in its
fixed order, once the term's operand exists, and every value the state
does not hold gives up its buffer after its last reader in that order,
so an ETDRK4 step holds 7 complex fields (two of them the returned and
the previous state).  `step` runs the schedule through `_run`, the one
op loop, which adds every term rounded exactly as acc + h * (coeff *
value), and each row's operations keep their order, so buffered and
fresh stepping give the same bits.  The price is aliasing, under one
rule: a state returned by a workspace step stays intact through the
next step; the step after may reuse its arrays.  So integrate copies
every snapshot, and a `step` call without a workspace allocates fresh
buffers.

The rows a workspace runs are cast-free (`_cast_free`): a float64
coefficient array of at most np.getbufsize() entries (8192 by default)
is run as its complex128 copy, a larger one as the phi cache's array
itself.  numpy multiplies a float64 array by a complex128 one by casting
the former, through buffers of that size, and then running the complex
loop, so the copy gives the same bits; it saves the fixed cost of the
cast on small fields, where that cost is a large share of each product,
while on larger fields the cast costs no more than the copy's loop and
the copy would only add memory.

On a 3D field of at least lane.MIN_SPLIT_ENTRIES entries the workspace
cuts its ops at their evaluations (_segments), and each stretch of
elementwise ops between two evaluations runs on the two halves of the
first grid axis of every slot, coefficient and product, one half on the
lane's worker thread (lane.split), while the transforms split their own
passes (spectral).  Every entry goes through the same ops in the same
order, so the bits stay.  The pointwise map and the stability check run
whole in the calling thread: a user's func need not be pointwise.

Multistep schemes are started by the fixed-point procedure
`start_multistep`: q - 1 ETDRK2 steps, then iterations of

    u^j = e^{jhL} u^0 + h sum_l gamma_l(j, hL) Delta^l N(u^0)

with forward differences Delta^l taken over the current iterate's
nonlinear values, stopping when successive iterates agree to a relative
max-norm below h^q.  The map is q - 1 rows of the same form, run as
ops through `_run` in buffers allocated once.
"""
from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import lane
from .errors import UnstableError
from .phifun import KeyedDiagonal, PhiExpr, eval_phi_exprs, exp_term, gamma_table
from .spectral import install_fft_counter, remove_fft_counter
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
    """max |arr|, with the moduli written to scratch when given (the
    reduction ndarray.max runs, called without its Python wrapper)."""
    return float(np.maximum.reduce(np.abs(arr, scratch), axis=None))


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


# the op kinds of a step schedule (_schedule) and of the starter's map
_START, _TERM, _DIFF, _EVAL = range(4)


def _run(ops: Sequence[tuple], slots: Sequence[np.ndarray], product: np.ndarray,
         h: np.ndarray, evaluate: Callable) -> None:
    """Run ops (kind, c, a, b) over slots, in their order: _START sets
    slot b to c * slot a, _TERM adds c times slot a to slot b, _DIFF
    sets slot b to slot c - slot a and _EVAL writes N(slot a) into slot
    b by evaluate(coeffs, out).  A term is rounded exactly as acc + h *
    (c * value), through product: product = c * value; product *= h;
    acc += product, with h the complex128 scalar numpy would convert it
    to.  The output arrays are passed positionally: numpy parses them
    faster than out= keywords, and the ufuncs are bound once, which
    matters on small fields."""
    multiply, add, subtract = np.multiply, np.add, np.subtract
    for kind, c, a, b in ops:
        if kind == _TERM:
            multiply(c, slots[a], product)
            multiply(product, h, product)
            acc = slots[b]
            add(acc, product, acc)
        elif kind == _START:
            multiply(c, slots[a], slots[b])
        elif kind == _DIFF:
            subtract(slots[c], slots[a], slots[b])
        else:
            evaluate(slots[a], slots[b])


def _halves(shape: tuple) -> Optional[tuple]:
    """The index tuples of the two halves of axis -3 of a field shaped
    shape, when its row arithmetic runs in halves: a field of four axes
    (components and three grid axes, as a 3D system's coefficients are)
    with at least lane.MIN_SPLIT_ENTRIES entries.  Else None."""
    if len(shape) != 4 or math.prod(shape) < lane.MIN_SPLIT_ENTRIES:
        return None
    cut, rest = shape[-3] // 2, (slice(None), slice(None))
    return (Ellipsis, slice(None, cut), *rest), (Ellipsis, slice(cut, None), *rest)


def _segments(ops: Sequence[tuple], halves: tuple) -> tuple:
    """ops cut at their evaluations into (first, second, evaluation)
    segments, as _run_halves runs them: the stretch of elementwise ops
    before each _EVAL op (or before the end), over the first and over
    the second half (halves) of every coefficient, then that _EVAL op
    (None at the end).  A coefficient that does not extend along axis -3
    broadcasts whole to either half."""
    def part(kind: int, c, index: tuple):
        if kind == _DIFF or c.ndim < 3 or c.shape[-3] == 1:
            return c
        return c[index]

    segments, stretch = [], []
    for op in (*ops, None):
        if op is not None and op[0] != _EVAL:
            stretch.append(op)
        elif stretch or op is not None:
            segments.append((*(tuple((kind, part(kind, c, index), a, b) for kind, c, a, b in stretch)
                               for index in halves), op))
            stretch = []
    return tuple(segments)


def _run_halves(segments: Sequence[tuple], slots: Sequence[np.ndarray], products: tuple,
                h: np.ndarray, evaluate: Callable, halves: tuple) -> None:
    """Run _segments over slots: each stretch through _run on the two
    halves of every slot and of the product (products), one half on the
    lane's worker (lane.split), then its evaluation on whole slots.  Each
    entry goes through the ops of the stretch in their order, so the
    bits are those of _run over whole slots."""
    first, second = ([slot[index] for slot in slots] for index in halves)
    for ops, others, evaluation in segments:
        if ops:
            lane.split(_run, (ops, first, products[0], h, None),
                       (others, second, products[1], h, None))
        if evaluation is not None:
            evaluate(slots[evaluation[2]], slots[evaluation[3]])


def _cast_free(rows: Sequence[tuple]) -> tuple:
    """rows with every float64 array of at most np.getbufsize() entries
    replaced by its complex128 copy, made once per distinct array: the
    operand numpy's cast would give each product, so the rows give the
    same bits without the cast.  Larger arrays, and complex ones, are
    the rows' own."""
    limit = np.getbufsize()
    copies: dict = {}

    def lay(coeff: np.ndarray) -> np.ndarray:
        if coeff.dtype != np.float64 or coeff.size > limit:
            return coeff
        if id(coeff) not in copies:
            copies[id(coeff)] = coeff.astype(np.complex128)
        return copies[id(coeff)]

    return tuple((lay(propagator), source, tuple((lay(c), operand) for c, operand in terms))
                 for propagator, source, terms in rows)


def _copying_evaluator(system) -> Callable:
    """The evaluation for a system that only has nonlinear: a copy of its
    new array into out."""
    def evaluate(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, system.nonlinear(coeffs))
        return out
    return evaluate


def _real_view(buffer: np.ndarray) -> np.ndarray:
    """A contiguous float64 array shaped like buffer, a C-contiguous
    complex128 array, over its first bytes: a norm's moduli laid over a
    buffer that is idle while they are taken."""
    return buffer.reshape(-1).view(np.float64)[: buffer.size].reshape(buffer.shape)


def _state_slots(q: int) -> int:
    """The slots a step fills from its state, before the pooled ones:
    u^n, the output and, for q >= 2, N(u^n), ..., N(u^{n-q+1})."""
    return q + 2 if q > 1 else 2


def _schedule(rows: Sequence[tuple], q: int) -> tuple:
    """(ops, pooled): the row program of a step as one list of ops over
    slots, and the number of pooled buffers among those slots.

    Slot 0 is u^n, slot 1 the output and, for q >= 2, slots 2..q + 1
    the state's N(u^n), ..., N(u^{n-q+1}); the pooled slots follow.  An
    op is (kind, c, a, b), as _run runs it: _START sets slot b to c *
    slot a (a row's propagator times its source), _TERM adds c times
    slot a to slot b, _DIFF sets slot b to slot c - slot a and _EVAL
    writes N(slot a) into slot b.  Two passes over named values make it.

    Order: N(u^n) first (q = 1), then each stage row whole, each followed
    by the evaluation of its stage and the difference from N(u^n),
    formed in place.  The output row runs interleaved: its start and
    each of its terms, in the row's order, as soon as the operand
    exists.  A history difference N(u^{n-j}) - N(u^n) is formed just
    before its first reader.

    Pool: every value the state does not hold has a buffer from the op
    that writes it to its last reader in that order.  The written value
    takes its buffer before the op's inputs that have no later reader
    give theirs back, and it takes the buffer given back last, or else a
    new one, so the pool holds as many fields as are live at once.
    """
    out_propagator, out_source, out_terms = rows[-1]
    # pass 1, order, over named values: ("v", i) is source i (u^n, then
    # v^2..v^s) and ("v", s) the output, ("d", k) operand k and ("n", j)
    # the state's N(u^{n-j})
    out = ("v", len(rows))
    ops = [(_EVAL, None, ("v", 0), ("d", 0))] if q == 1 else []
    # whether each value a row may read yet has been written: a history
    # difference may be read from the start and is formed at its first read
    made = {("v", 0): True, ("d", 0): True, **{("d", j): False for j in range(1, q)}}

    def add(kind: int, c, key: tuple, acc: tuple) -> None:
        if not made[key]:
            ops.append((_DIFF, ("n", key[1]), ("d", 0), key))
            made[key] = True
        ops.append((kind, c, key, acc))

    pending = [(_START, out_propagator, ("v", out_source), out),
               *((_TERM, c, ("d", k), out) for c, k in out_terms)]
    for i in range(1, len(rows) + 1):
        while pending and pending[0][2] in made:  # the output row, as far as it can go
            add(*pending.pop(0))
        if i < len(rows):
            propagator, source, terms = rows[i - 1]
            add(_START, propagator, ("v", source), ("v", i))
            for c, k in terms:
                add(_TERM, c, ("d", k), ("v", i))
            diff = ("d", q + i - 1)
            ops += [(_EVAL, None, ("v", i), diff), (_DIFF, diff, ("d", 0), diff)]
            made[("v", i)] = made[diff] = True
    if pending:
        raise ValueError("the output row reads an operand that no stage makes")

    # pass 2, pool
    def reads(kind: int, c, a) -> tuple:
        return (a, c) if kind == _DIFF else (a,)

    last = {key: t for t, (kind, c, a, _) in enumerate(ops) for key in reads(kind, c, a)}
    slot = {("v", 0): 0, out: 1}
    if q > 1:
        slot.update({("d", 0): 2, **{("n", j): 2 + j for j in range(1, q)}})
    base, free, laid = len(slot), [], []
    fresh = itertools.count(base)
    for t, (kind, c, a, b) in enumerate(ops):
        if b not in slot:
            slot[b] = free.pop() if free else next(fresh)
        free += [slot[key] for key in reads(kind, c, a) if last[key] == t and slot[key] >= base]
        laid.append((kind, slot[c] if kind == _DIFF else c, slot[a], slot[b]))
    return tuple(laid), next(fresh) - base


class _StepWork:
    """The buffers of `step` for one scheme, one coefficient shape and one
    system.

    rows is the scheme's row program made cast-free (_cast_free, with
    np.getbufsize() as it is when the workspace is made): its float64
    arrays of at most that many entries are complex128 copies, and
    larger ones the phi cache's own, so a 3D field's rows add no memory.
    schedule is that program as the ops of _schedule, fixed here, over
    slots: the arrays that step sets from the state for each step, then
    the buffers the schedule pools by liveness, for N(u^n) (when q = 1),
    the stage accumulators, the stage differences and the history
    differences, each buffer reused after its value's last reader.
    An ETDRK4 step so pools three fields besides N(u^n).  product holds the term being added and,
    idle during an evaluation, the evaluation's values array; norm, a
    real view of product's first bytes, takes the stability check's
    moduli.  outputs and ring hold the states it returns: the step that
    makes state k writes its coefficients into outputs[k % 2] and, for
    q >= 2, N(u^k) into ring[k % (q + 1)] (ring is empty for q = 1).
    State m sits in slot m, so a step never writes its input, and a
    returned state stays intact through the next step; the step after
    may reuse its arrays.  h is the scheme's step as a complex128 scalar
    (_run).  The fields are complex128, shaped like the state's
    coefficients.  evaluate(coeffs, out) is the one nonlinear evaluation
    of the loop, which writes N(coeffs) into out and returns it:
    system.evaluator(product), bound once here, when the system has an
    evaluator, else _copying_evaluator(system).  halves, fixed here by
    _halves(shape), is None for a field that runs whole, else the index
    tuples of the two halves of its first grid axis; products then holds
    product's two halves.  program is the schedule as run runs it
    (lower).  A workspace belongs to one stepping loop in one thread,
    which on a field in halves hands the other half of each stretch to
    the lane's worker and waits for it within the step; a state that
    must outlive the next step is copied first.
    """

    __slots__ = ("rows", "schedule", "slots", "product", "outputs", "ring", "norm", "h",
                 "evaluate", "halves", "products", "program")

    def __init__(self, scheme: PrecomputedScheme, shape: tuple, system):
        def field() -> np.ndarray:
            return np.empty(shape, dtype=np.complex128)

        q = scheme.steps
        self.rows = _cast_free(scheme.rows)
        self.schedule, pooled = _schedule(self.rows, q)
        self.slots = [None] * _state_slots(q) + [field() for _ in range(pooled)]
        self.product = field()
        self.outputs = (field(), field())
        self.ring = tuple(field() for _ in range(q + 1 if q > 1 else 0))
        self.norm = _real_view(self.product)
        self.h = np.array(complex(scheme.h))
        bind = getattr(system, "evaluator", None)
        self.evaluate = _copying_evaluator(system) if bind is None else bind(self.product)
        self.halves = _halves(shape)
        self.products = None if self.halves is None else tuple(
            self.product[index] for index in self.halves)
        self.program = self.lower(self.schedule)

    def lower(self, ops: Sequence[tuple]) -> tuple:
        """ops as run runs them: as they are, or cut into _segments when
        the workspace's field runs in halves."""
        return tuple(ops) if self.halves is None else _segments(ops, self.halves)

    def run(self, program: tuple, slots: Sequence[np.ndarray]) -> None:
        """Run a program of lower over slots: through _run, or through
        _run_halves when the field runs in halves."""
        if self.halves is None:
            _run(program, slots, self.product, self.h, self.evaluate)
        else:
            _run_halves(program, slots, self.products, self.h, self.evaluate, self.halves)


def step(state: SimState, scheme: PrecomputedScheme, system, *,
         work: Optional[_StepWork] = None) -> SimState:
    """Advance one step with a precomputed tableau scheme.

    Evaluates the nonlinearity once per stage; for schemes with history
    (q >= 2) the first stage reuses the stored N(u^n), and the evaluation
    at the new solution goes into the workspace's ring, keeping the total
    at s evaluations (2s transforms) per step.  The rows of work.rows
    (scheme.rows made cast-free, with the same bits) run as the ops of
    work.schedule, in one work.run (one _run, or on a field in halves
    each stretch between two evaluations as two _runs, one on the lane's
    worker): each stage row into its accumulator,
    then N(v^i) - N(u^n), formed in place where work.evaluate wrote
    N(v^i); the output row starts as soon as u^n is known and takes each
    term, in its order, once the term's operand exists.  Every row
    therefore runs the operations of a whole-row pass in its order, with
    the same bits, and each field's buffer is reused once its last
    reader has run (_schedule).

    Without work, fresh buffers are allocated for this system and the
    returned state owns its arrays.  With work (integrate passes one per
    run; it must match the scheme, the system and the shape of
    state.coeffs and serve one loop in one calling thread), the new state's
    arrays are the workspace's slots for step state.step + 1 (_StepWork):
    the state stays intact through the next step, and the step after may
    reuse its arrays.
    """
    q = scheme.steps
    if q > 1 and len(state.nonlinear) < q:
        raise ValueError(f"{scheme.name} needs {q} nonlinear values, N(u^n) and {q - 1} "
                         "past nonlinear values; run the starting procedure first")
    u = state.coeffs
    if work is None:
        work = _StepWork(scheme, u.shape, system)
    slots = work.slots
    new_step = state.step + 1
    out = work.outputs[new_step % 2]
    slots[0], slots[1] = u, out
    if q > 1:
        slots[2:q + 2] = state.nonlinear[:q]
    work.run(work.program, slots)
    new_time = state.time + scheme.h
    _check_stable(out, new_time, new_step, state.initial_norm, work.norm)
    nonlinear = ()
    if q > 1:
        nonlinear = (work.evaluate(out, work.ring[new_step % (q + 1)]),
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

    The map is q - 1 rows (e^{jhL}, source u^0, terms (gamma_l(j, hL), l)),
    made cast-free (_cast_free) and run as ops through the ETDRK2
    workspace's run, the step's loop (so in halves where its steps are),
    in buffers allocated once: operand l >= 1, Delta^l N(u^0), is
    formed in place over N(u^l), from the top index down, and each u^j
    goes into a spare buffer that swaps with the old u^j once its
    stability check and change are taken.  The ETDRK2 steps' workspace
    lends its evaluation, its product and norm arrays, its two outputs
    and its pooled fields, idle once its steps are copied: the spare,
    the moduli of the change (norm lies over product, which holds the
    change) and the first min(q, 3) of the N(u^j).  The workspace dies
    with the call, so the returned arrays are the starter's own.

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
    rows = _cast_free([(propagator, 0,
                        tuple((gamma, l) for l, gamma in enumerate(gamma_table(q, j, diag))))
                       for j, propagator in enumerate(propagators, start=1)])
    evaluate, product, norm = work.evaluate, work.product, work.norm
    moduli = _real_view(work.outputs[0])
    pooled = work.slots[_state_slots(1):]
    buffers = [*pooled[:q], *(np.empty_like(product) for _ in range(q - len(pooled)))]
    # slots: u^0, N(u^0), ..., N(u^{q-1}), u^1, ..., u^{q-1}, the iterate being made
    made = 2 * q
    slots = [u0, *(evaluate(u, out) for u, out in zip((u0, *old), buffers)), *old,
             work.outputs[1]]
    diffs = work.lower([(_DIFF, i + 1, i, i + 1)
                        for l in range(1, q) for i in range(q - 1, l - 1, -1)])
    maps = [work.lower([(_START, propagator, 0, made),
                        *((_TERM, gamma, l + 1 if l or not delta0_state else 0, made)
                          for gamma, l in terms)])
            for propagator, _, terms in rows]
    evals = work.lower([(_EVAL, None, q + j, j + 1) for j in range(1, q)])
    converged, iterations = False, 0
    tol = max(h ** q, STARTER_FLOOR)
    for iterations in range(1, MAX_STARTER_ITERATIONS + 1):
        work.run(diffs, slots)
        scale = change = 0.0
        for j, ops in enumerate(maps, start=1):
            work.run(ops, slots)
            new = slots[made]
            scale = max(scale, _check_stable(new, j * h, j, initial_norm, norm))
            change = max(change, _max_norm(np.subtract(new, slots[q + j], product), moduli))
            slots[made], slots[q + j] = slots[q + j], new
        work.run(evals, slots)
        if scale == 0.0 or change <= tol * scale:
            converged = True
            break
    final = SimState(coeffs=slots[made - 1], time=(q - 1) * h, step=q - 1,
                     nonlinear=tuple(slots[q:0:-1]), initial_norm=initial_norm)
    return StarterResult(state=final, states=(u0, *slots[q + 1:made]), converged=converged,
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
        # the state's coefficients move into the workspace's slot for them,
        # so the array they leave is not held through the first step
        moved = work.outputs[state.step % 2]
        np.copyto(moved, state.coeffs)
        state = replace(state, coeffs=moved)
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
