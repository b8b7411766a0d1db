"""Tests for the phi/gamma kernels, their values over diagonals and PhiExpr algebra."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phistep import phifun
from phistep.phifun import (
    MAX_INDEX,
    PhiExpr,
    PhiTerm,
    clear_eval_cache,
    const_term,
    eval_phi_expr,
    exp_term,
    gamma_scalar,
    gamma_values,
    phi,
    phi_scalar,
    phi_values,
    psi,
)

from _oracles import (gamma_reference, gamma_reference_rows, phi_reference, phi_reference_rows,
                      rel_err)

# ---------------------------------------------------------------------------
# scalar kernels vs the 80-digit oracle


def test_phi_values_at_zero_are_inverse_factorials():
    for l in range(13):
        assert phi_scalar(l, 0.0) == 1.0 / math.factorial(l)


def test_phi_scalar_frozen_values():
    # phi_1(-1) = 1 - e^{-1}; phi_3(-100) = (e^{-100} - 1 + 100 - 5000)/(-100)^3
    assert phi_scalar(1, -1.0).real == pytest.approx(0.6321205588285577, rel=1e-14)
    assert phi_scalar(3, -100.0).real == pytest.approx(4.901e-3, rel=1e-13)
    got = phi_scalar(2, 0.3 + 0.4j)
    assert got.real == pytest.approx(0.5460349816385555, rel=1e-13)
    assert got.imag == pytest.approx(0.0769802342324938, rel=1e-13)


@pytest.mark.parametrize("index", range(13))
def test_phi_scalar_accuracy_grid(index):
    # dense radius sweep straddling the series/recurrence switch
    radii = [0.05, 0.3, 0.49, 0.5, 0.51, 1.0, 2.0, 3.5, 5.0, 7.0, 8.5, 12.0, 30.0, 200.0]
    for r in radii:
        for theta in (0.0, 0.7, 1.57, 2.4, math.pi):
            z = r * complex(math.cos(theta), math.sin(theta))
            got = phi_scalar(index, z)
            assert rel_err(got, phi_reference(index, z)) < 1e-13, (index, z)


@pytest.mark.parametrize("j,k", [(0, 1), (1, 1), (2, 3), (3, 2), (5, 5), (5, 1), (7, 7), (8, 6)])
def test_gamma_scalar_accuracy_grid(j, k):
    radii = [0.05, 0.4, 0.5, 0.6, 1.0, 1.4, 1.5, 2.0, 3.0, 5.0, 9.0, 20.0]
    for r in radii:
        for theta in (0.0, 0.9, 1.57, 2.2, math.pi):
            z = r * complex(math.cos(theta), math.sin(theta))
            got = gamma_scalar(j, k, z)
            assert rel_err(got, gamma_reference(j, k, z)) < 1e-13, (j, k, z)


def test_gamma_frozen_values():
    assert gamma_scalar(0, 1, -0.7).real == pytest.approx(0.7191638517265579, rel=1e-14)
    assert gamma_scalar(1, 1, -0.7).real == pytest.approx(0.4011944975334888, rel=1e-14)
    assert gamma_scalar(0, 2, 1.5).real == pytest.approx(12.723691282125112, rel=1e-14)


def test_gamma_zero_argument_matches_series_constant():
    # gamma_1(1, 0) = 1/2 and gamma_2(1, 0) = -1/12, from the exact series
    assert gamma_scalar(1, 1, 0.0) == pytest.approx(0.5, abs=1e-16)
    assert gamma_scalar(2, 1, 0.0) == pytest.approx(-1.0 / 12.0, rel=1e-15)


def test_gamma_near_zero_casts_no_overflowing_recurrence_entry():
    # at 1e-300 the long-double recurrence is far beyond complex128, but
    # the series replaces it there, so no overflowing entry is cast
    with np.errstate(over="raise"):
        got = gamma_values(range(5), 4, np.array([1e-300, -1.0]))
    want = [[4.0, 0.9816843611112658], [8.0, 3.018315638888734],
            [6.666666666666667, 3.4725265416668987], [2.6666666666666665, 1.7094031574070465],
            [0.3111111111111111, 0.266175990741308]]
    assert got.dtype == np.float64 and got.tolist() == want


def test_index_bounds_raise():
    with pytest.raises(ValueError):
        phi_scalar(13, 1.0)
    with pytest.raises(ValueError):
        phi_scalar(-1, 1.0)
    with pytest.raises(ValueError):
        gamma_scalar(2, 0, 1.0)
    with pytest.raises(ValueError):
        gamma_values(2, 13, -1.0)


# ---------------------------------------------------------------------------
# identities (property-based)


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=8),
    re=st.floats(min_value=-1e3, max_value=50.0),
    im=st.floats(min_value=-1e3, max_value=1e3),
)
def test_phi_recurrence_residual(l, re, im):
    # stiff-operator region: e^z must stay representable for the identity
    # to be checkable in floats at all
    z = complex(re, im)
    assume(0.6 <= abs(z) <= 1e3)
    lo, hi = phi_scalar(l, z), phi_scalar(l + 1, z)
    residual = abs(hi * z - lo + 1.0 / math.factorial(l))
    # second term: float evaluation floor of the residual expression itself,
    # dominant only where phi_l is tiny against 1/l!
    assert residual <= 1e-12 * abs(lo) + 1e-14 * (abs(hi * z) + 1.0 / math.factorial(l))


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=12),
    re=st.floats(min_value=-50, max_value=10),
    im=st.floats(min_value=0.001, max_value=50),
)
def test_phi_conjugate_symmetry(l, re, im):
    z = complex(re, im)
    assert phi_scalar(l, z.conjugate()) == phi_scalar(l, z).conjugate()


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=1, max_value=8),
    re=st.floats(min_value=-10, max_value=3),
    im=st.floats(min_value=0.001, max_value=10),
)
def test_gamma_conjugate_symmetry(j, k, re, im):
    z = complex(re, im)
    assert gamma_scalar(j, k, z.conjugate()) == gamma_scalar(j, k, z).conjugate()


def test_gamma_zero_matches_k_scaled_phi1():
    # gamma_0(k, z) = k * phi_1(k z)
    for k in (1, 2, 5):
        for z in (-3.0, 0.2, 1.5j, -0.4 + 0.3j):
            lhs = gamma_scalar(0, k, z)
            rhs = k * phi_scalar(1, k * z)
            assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


# ---------------------------------------------------------------------------
# values over diagonals


def test_contour_matches_scalar_far_from_origin():
    assert rel_err(phi_values(3, -100.0), phi_reference(3, -100.0)) < 1e-12


def test_contour_matches_reference_on_lambda_sweep():
    # l = 0 is excluded at deep-negative lambda: e^lambda underflows float64
    # there (and propagators are evaluated by np.exp, not by phi_values)
    for l in (1, 4, 9, 12):
        for lam in (-1e5, -37.0, -1.0, -0.01, 3.0, 1e4j, -250j, 0.5 + 80j):
            got = phi_values(l, lam)
            assert rel_err(got, phi_reference(l, lam)) < 1e-12, (l, lam)
    for lam in (-37.0, -1.0, -0.01, 3.0, 1e4j, -250j):
        assert rel_err(phi_values(0, lam), phi_reference(0, lam)) < 1e-12


def test_gamma_contour_matches_scalar():
    got = gamma_values(2, 3, -5.0)
    assert rel_err(got, gamma_scalar(2, 3, -5.0)) < 1e-12
    assert rel_err(got, 0.5079999914347350) < 1e-12


def test_contour_real_entries_have_bitwise_zero_imag():
    lam = np.array([-2000.0, -1.0, -1e-8, 0.0, 0.3])
    out = phi_values(2, lam)
    assert isinstance(out, np.ndarray)
    assert np.all(out.imag == 0.0)


def test_contour_mixed_real_complex_entries():
    lam = np.array([-1.0 + 0j, 2j, -0.5 + 0.25j, 4.0 + 0j])
    out = phi_values(1, lam)
    assert out.imag[0] == 0.0 and out.imag[3] == 0.0
    for i in range(4):
        assert rel_err(out[i], phi_reference(1, complex(lam[i]))) < 1e-12


def test_contour_dedup_matches_direct():
    # repeated diagonal entries (the dedup fast path) give identical bits
    rng = np.random.default_rng(7)
    base = -np.abs(rng.normal(size=40)) * 100
    lam = np.repeat(base, 40)  # 1600 entries, 40 unique
    full = phi_values(2, lam)
    single = phi_values(2, base)
    assert np.array_equal(full.reshape(40, 40), np.broadcast_to(single[:, None], (40, 40)))


def _gate_entries():
    """About 12 distinct h*lambda entries of every problem's desk diagonal
    at each rung of its default ladder, picked at |z| quantiles.  The
    ladder is dyadic, so the half-step stage arguments z/2 of one rung
    are entries of the next."""
    from phistep.bench import make_plan
    from phistep.problems import default_grid, discretize, get_problem, problem_names

    entries = set()
    for key in problem_names():
        problem = get_problem(key)
        lam = np.unique(discretize(problem, default_grid(problem)).lam)
        lam = lam[np.argsort(np.abs(lam), kind="stable")]
        pick = np.unique(np.linspace(0, lam.size - 1, 12).round().astype(int))
        for h in make_plan(key).ladder:
            entries.update(complex(z) for z in h * lam[pick])
    return np.array(sorted(entries, key=abs))


_gate_phi_reference = lru_cache(maxsize=None)(lambda z: phi_reference_rows(7, z))
_gate_gamma_reference = lru_cache(maxsize=None)(lambda k, z: gamma_reference_rows(5, k, z))


def test_phi_and_gamma_values_meet_the_accuracy_gate():
    # phi_1..phi_7 from one stacked call (pec726 and pecec736 use phi_7)
    # and the starter tables gamma_0..gamma_5(k, .) for k = 1..5 (q <= 6),
    # against the 80-digit references; gamma skips z = 0, where its
    # reference divides by zero (the series-constant tests cover it)
    z = _gate_entries()
    assert z.size > 800
    table = phi_values(range(1, 8), z)
    errors = [(rel_err(table[l - 1][i], _gate_phi_reference(zi)[l]), f"phi_{l}({zi})")
              for i, zi in enumerate(z) for l in range(1, 8)]
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] < 1e-13, worst
    nonzero = z[z != 0]
    errors = []
    for k in range(1, 6):
        table = gamma_values(range(6), k, nonzero)
        errors += [(rel_err(table[j][i], _gate_gamma_reference(k, zi)[j]), f"gamma_{j}({k}, {zi})")
                   for i, zi in enumerate(nonzero) for j in range(6)]
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] < 1e-14, worst


def _parent_phi_recurrence(index, z):
    """The one-index phi recurrence that _phi_rows replaced, verbatim."""
    p = np.exp(z)
    for l in range(index):
        p = (p - 1.0 / math.factorial(l)) / z
    return p


def _parent_phi_series(index: int, z: np.ndarray) -> np.ndarray:
    """The one-row phi series that the series loop of _phi_rows
    replaced, verbatim."""
    term = np.full(z.shape, 1.0 / math.factorial(index), dtype=np.complex128)
    total = term.copy()
    for j in range(1, phifun._SERIES_MAX_TERMS + 1):
        term = term * z / (index + j)
        total += term
        if np.all(np.abs(term) <= phifun._SERIES_TOL * np.abs(total)):
            break
    return total


def _parent_phi_values(index, z):
    """The one-index phi kernel that _phi_rows replaced, verbatim but for
    its recurrence and series, which are the frozen ones above."""
    if index == 0:
        return np.exp(z)
    out = np.empty(z.shape, dtype=np.complex128)
    near = np.abs(z) < phifun._series_radius(index)
    if near.any():
        out[near] = _parent_phi_series(index, z[near])
    if not near.all():
        out[~near] = _parent_phi_recurrence(index, z[~near])
    return out


def _plain(values_fn, lam):
    """values_fn's rows at every entry of lam in one call, with no split
    or slicing, as the real parts when every entry is real: the plain
    per-entry kernel that phi_values and gamma_values must reproduce."""
    lam = np.asarray(lam, dtype=np.complex128)
    table = values_fn(lam.reshape(-1)).reshape(-1, *lam.shape)
    return table.real if not lam.imag.any() else table


def _blocking_diagonals():
    rng = np.random.default_rng(11)
    real = -np.linspace(0.0, 400.0, 300) + 2.5
    cplx = rng.normal(size=300) * 6 - 1j * rng.normal(size=300) ** 2 * 40
    mixed = np.concatenate([real[:150], cplx[:150], 1e-3j * rng.normal(size=40)])
    rng.shuffle(mixed)
    # longer than two slices of entries and not a multiple of one, so a
    # ragged last slice is exercised
    width = phifun._BLOCK_BYTES // 16
    n = 2 * width + 777
    long = np.where(
        rng.random(n) < 0.5,
        -np.abs(rng.normal(size=n)) * 60 + 0j,
        rng.normal(size=n) * 8 + 1j * rng.normal(size=n) * 30,
    )
    return {"real": real, "complex": cplx, "mixed": mixed, "long": long}


def test_contour_memory_is_bounded_by_block_budget():
    # 2**16 distinct complex entries, so dedup cannot shrink the diagonal.
    # The gamma_7 recurrence on the whole diagonal at once would hold eight
    # long-double rows, 16 times the diagonal's bytes; evaluation in slices
    # needs a fixed multiple of the block budget for the kernels'
    # temporaries plus a few arrays the size of the output.
    n = 1 << 16
    rng = np.random.default_rng(5)
    lam = -np.abs(rng.normal(size=n)) * 20 + 1j * rng.normal(size=n) * 20
    assert np.unique(lam).size == n
    tracemalloc.start()
    try:
        out = gamma_values(7, 7, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    bound = 40 * phifun._BLOCK_BYTES + 6 * out.nbytes
    assert bound < 16 * lam.nbytes  # the unsliced kernel would not fit
    assert peak < bound, peak


def _parent_gamma_recurrence(j, k, z):
    """The one-row gamma recurrence the batched kernel replaced, verbatim."""
    zl = z.astype(phifun._CLD)
    rows = [(np.exp(k * zl) - phifun._LD(1)) / zl]
    for jj in range(1, j + 1):
        acc = np.zeros(z.shape, dtype=phifun._CLD)
        for m in range(1, jj + 1):
            acc += (phifun._LD((-1) ** (m - 1)) / phifun._LD(m)) * rows[jj - m]
        acc -= phifun._LD(math.comb(k, jj))
        rows.append(acc / zl)
    return rows[j].astype(np.complex128)


@lru_cache(maxsize=None)
def _parent_gamma_series_coeffs(j: int, k: int) -> tuple[float, ...]:
    """The Fraction builder of the series coefficients that the integer
    one replaced, verbatim."""
    nterms = phifun._gamma_series_terms(j, k)
    rows: list[list[Fraction]] = [
        [Fraction(k) ** (n + 1) / math.factorial(n + 1) for n in range(nterms + 1)]
    ]
    for jj in range(1, j + 1):
        numer = [Fraction(0)] * (nterms + 1)
        for m in range(1, jj + 1):
            w = Fraction((-1) ** (m - 1), m)
            prev = rows[jj - m]
            for n in range(nterms + 1):
                numer[n] += w * prev[n]
        numer[0] -= math.comb(k, jj)
        if numer[0] != 0:
            raise AssertionError("gamma recurrence lost its removable singularity")
        rows.append(numer[1:] + [Fraction(0)])
    # hi/lo double pairs: summing both in long double recovers the exact
    # rational coefficient to ~1e-35 without int -> longdouble pitfalls
    out = []
    for c in rows[j]:
        hi = float(c)
        out.append((hi, float(c - Fraction(hi))))
    return tuple(out)


def _parent_gamma_series(j: int, k: int, z: np.ndarray) -> np.ndarray:
    """The Horner series that the in-place one replaced, verbatim."""
    coeffs = _parent_gamma_series_coeffs(j, k)
    zl = z.astype(phifun._CLD)
    out = np.zeros(z.shape, dtype=phifun._CLD)
    for hi, lo in reversed(coeffs):
        out = out * zl + (phifun._LD(hi) + phifun._LD(lo))
    return out.astype(np.complex128)


@pytest.mark.parametrize("j", range(MAX_INDEX + 1))
def test_integer_series_coeffs_equal_fraction_builder(j):
    # every (hi, lo) pair, the sign of a zero included, is the one the
    # Fraction builder gives
    for k in range(1, MAX_INDEX + 1):
        got, want = phifun._gamma_series_coeffs(j, k), _parent_gamma_series_coeffs(j, k)
        assert len(got) == len(want), (j, k)
        for n, (g, w) in enumerate(zip(got, want)):
            assert g == w, (j, k, n)
            assert [math.copysign(1.0, x) for x in g] == [math.copysign(1.0, x) for x in w], (j, k, n)


def test_series_singularity_error_names_its_cause(monkeypatch):
    # a recurrence whose constant term fails to cancel names j, k and the
    # level at which it failed
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, r: comb(n, r) + (r == 2))
    with pytest.raises(AssertionError, match=r"gamma_3\(k=2\).*level 2"):
        phifun._gamma_series_coeffs(3, 2)


def _parent_gamma_values(j, k, z):
    """The one-row gamma kernel the batched kernel replaced, verbatim but
    for its series, which is the frozen parent series above."""
    out = np.empty(z.shape, dtype=np.complex128)
    near = np.abs(z) < phifun._gamma_series_radius(j, k)
    if near.any():
        out[near] = _parent_gamma_series(j, k, z[near])
    if not near.all():
        out[~near] = _parent_gamma_recurrence(j, k, z[~near])
    return out


def _gamma_table_diagonals():
    full = _blocking_diagonals()
    diagonals = {"real": full["real"][::3], "complex": full["complex"][:100],
                 "mixed": full["mixed"][:120]}
    # 600 entries, 120 distinct: the kernel runs on the unique ones
    diagonals["dedup"] = np.tile(diagonals["mixed"], 5)
    assert np.unique(diagonals["dedup"]).size == 120
    return diagonals


@pytest.mark.parametrize("kind", ["real", "complex", "mixed", "dedup"])
def test_gamma_table_rows_equal_parent_kernel(kind):
    # every row of a batched table, for q = 2..7 and every k < q, has the
    # bits (and the dtype) of the one-row kernel it replaced, run on the
    # whole diagonal at once
    lam = _gamma_table_diagonals()[kind]
    want = {(l, k): _plain(lambda z: _parent_gamma_values(l, k, z)[None], lam)
            for k in range(1, 7) for l in range(7)}
    all_real = not lam.imag.any()
    for q in range(2, 8):
        for k in range(1, q):
            table = gamma_values(range(q), k, lam)
            assert table.shape == (q, lam.size)
            assert table.dtype == (np.float64 if all_real else np.complex128), (q, k)
            for l in range(q):
                assert table[l].tobytes() == want[(l, k)][0].tobytes(), (q, k, l)


_SWITCH_RADII = sorted({phifun._series_radius(l) for l in range(1, MAX_INDEX + 1)}
                       | {phifun._gamma_series_radius(j, k) for j in range(MAX_INDEX + 1)
                          for k in range(1, MAX_INDEX + 1)})


def _at_radius(radius, side, turn):
    """An entry of modulus radius or one of its neighbouring doubles, in
    direction turn * pi / 4."""
    size = np.nextafter(radius, (0.0, radius, 2 * radius)[side + 1])
    return complex(size * np.exp(1j * np.pi * turn / 4))


_ENTRIES = st.one_of(
    st.builds(complex, st.floats(-80.0, 8.0), st.just(0.0)),
    st.builds(complex, st.floats(-80.0, 8.0), st.floats(-80.0, 80.0)),
    st.builds(complex, st.just(0.0), st.floats(-80.0, 80.0)),
    st.builds(complex, st.floats(-8.0, 8.0), st.floats(-1e-12, 1e-12)),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     5e-324 + 0j, 1e-300j]),
    st.builds(_at_radius, st.sampled_from(_SWITCH_RADII), st.sampled_from([-1, 0, 1]),
              st.integers(0, 7)),
)


@st.composite
def _kernel_diagonals(draw):
    """Diagonals of mixed entries (real, complex, imaginary, tiny
    imaginary parts, either sign of zero, at and beside every switch
    radius), all real or not, with every entry repeated 1..3 times."""
    lam = np.array(draw(st.lists(_ENTRIES, min_size=1, max_size=30)), dtype=np.complex128)
    if draw(st.booleans()):
        lam = lam.real.astype(np.complex128)
    return np.tile(lam, draw(st.integers(1, 3)))


def _through_split(kernel, nrows, lam):
    """kernel's rows at every entry of lam through the split, slicing and
    scatter that phi_values and gamma_values run their kernels through:
    equal entries, a complex diagonal's +0 and -0 parts among them, share
    one evaluation."""
    diag = phifun.KeyedDiagonal(lam)
    return diag.scatter(phifun._rows(kernel, nrows, diag))


@settings(max_examples=40, deadline=None)
@given(lam=_kernel_diagonals(), q=st.integers(2, 7))
def test_gamma_pass_over_every_k_equals_the_parent_kernel(lam, q):
    # the q * (q - 1) rows of one pass over k = 1..q-1 have the bits of the
    # one-row kernel they replaced, each sign of zero kept; the tables of
    # one pass and single-k gamma_values (all rows and one row) keep them,
    # and the parent's dtype, through the diagonal's split
    ks = range(1, q)
    batched = phifun._gamma_rows(range(q), ks, lam)
    assert batched.shape == (q * (q - 1), lam.size)
    for (k, l), row in zip([(k, l) for k in ks for l in range(q)], batched, strict=True):
        assert row.tobytes() == _parent_gamma_values(l, k, lam).tobytes(), (k, l)
    clear_eval_cache()
    try:
        tables = phifun.gamma_tables(q, ks, phifun.KeyedDiagonal(lam))
    finally:
        clear_eval_cache()
    dtype = np.complex128 if lam.imag.any() else np.float64
    for k, table in zip(ks, tables, strict=True):
        want = _through_split(lambda z: np.stack([_parent_gamma_values(l, k, z) for l in range(q)]),
                             q, lam)
        assert want.dtype == dtype and want.shape == (q, lam.size)
        for got in (table, gamma_values(range(q), k, lam)):
            assert (got.dtype, got.shape, got.tobytes()) == (dtype, want.shape, want.tobytes()), k
        for l in range(q):
            one = gamma_values(l, k, lam)
            assert (one.dtype, one.tobytes()) == (dtype, want[l].tobytes()), (k, l)


@settings(max_examples=40, deadline=None)
@given(lam=_kernel_diagonals(),
       rows=st.one_of(st.sampled_from([range(1, MAX_INDEX + 1), (2, 7, 12), range(MAX_INDEX + 1)]),
                      st.lists(st.integers(0, MAX_INDEX), min_size=1, max_size=MAX_INDEX)))
def test_phi_pass_over_rows_equals_the_parent_kernel(lam, rows):
    # each row of one pass, frozen at its own last series term, has the
    # bits of the one-index kernel it replaced, each sign of zero kept,
    # and keeps them and the parent's dtype through the diagonal's split
    batched = phifun._phi_rows(rows, lam)
    for l, row in zip(rows, batched, strict=True):
        assert row.tobytes() == _parent_phi_values(l, lam).tobytes(), l
    table = phi_values(rows, lam)
    assert table.shape == (len(rows), lam.size)
    for l, row in zip(rows, table, strict=True):
        want = _through_split(lambda z: _parent_phi_values(l, z)[None], 1, lam)[0]
        assert (row.dtype, row.tobytes()) == (want.dtype, want.tobytes()), l


def test_gamma_pass_over_every_k_in_narrowed_slices_equals_the_parent_kernel():
    # on a diagonal of more than two slices the pass over k = 1..4 runs on
    # slices a quarter as wide, ragged at the end; every table keeps the
    # bits of the one-row kernel run on the whole diagonal at once
    lam, q = _blocking_diagonals()["long"], 5
    assert lam.size % (phifun._BLOCK_BYTES // 16 // (q - 1))
    clear_eval_cache()
    try:
        tables = phifun.gamma_tables(q, range(1, q), phifun.KeyedDiagonal(lam))
    finally:
        clear_eval_cache()
    for k, table in zip(range(1, q), tables, strict=True):
        for l in range(q):
            want = _plain(lambda z: _parent_gamma_values(l, k, z)[None], lam)[0]
            assert table[l].tobytes() == want.tobytes(), (k, l)


def test_gamma_pass_over_every_k_is_bounded_by_block_budget():
    # q = 6 tables for k = 1..5 on 2**14 distinct complex entries: the
    # tables themselves plus a fixed multiple of the block budget, as for
    # one k, since the pass narrows its slices by its number of k; each
    # table is its own array, so evicting one from the cache frees it
    n, q = 1 << 14, 6
    rng = np.random.default_rng(8)
    lam = -np.abs(rng.normal(size=n)) * 20 + 1j * rng.normal(size=n) * 20
    diag = phifun.KeyedDiagonal(lam)
    assert diag.distinct.size == n  # split before the measurement
    clear_eval_cache()
    tracemalloc.start()
    try:
        tables = phifun.gamma_tables(q, range(1, q), diag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_eval_cache()
    assert all(t.shape == (q, n) and np.all(np.isfinite(t)) for t in tables)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tables) for b in tables[i + 1:])
    bound = 32 * phifun._BLOCK_BYTES + sum(t.nbytes for t in tables)
    assert peak < bound, (peak, bound)


def _repeating_diagonals():
    from phistep import problems

    nls = problems.get_problem("nls")
    system = problems.discretize(nls, problems.default_grid(nls))
    lam = (nls.desk_T / 100) * system.lam.ravel()
    assert lam.size == 128 and np.unique(lam).size == 65
    return {"nls": lam, "three": np.array([-1.5 + 2j, 0.25 - 1j, -1.5 + 2j])}


def _counting(monkeypatch, name):
    """Wrap phifun.<name>, whose last argument is the points, and return
    the list of the point counts it is called with."""
    kernel, sizes = getattr(phifun, name), []

    def counted(*args):
        sizes.append(args[-1].size)
        return kernel(*args)

    monkeypatch.setattr(phifun, name, counted)
    return sizes


@pytest.mark.parametrize("kind", ["nls", "three"])
def test_contour_mean_runs_on_distinct_entries_at_any_size(monkeypatch, kind):
    # far below any size threshold, a repeated entry is evaluated once: the
    # kernels see each distinct entry once, and every entry still gets the
    # bits of the plain per-entry kernel
    lam = _repeating_diagonals()[kind]
    distinct = np.unique(lam).size
    assert distinct < lam.size
    q, k = 5, 3
    want_phi = {l: _plain(lambda z: _parent_phi_values(l, z)[None], lam) for l in (1, 4)}
    want_gamma = _plain(lambda z: phifun._gamma_rows(range(q), (k,), z), lam)
    phi_points = _counting(monkeypatch, "_phi_rows")
    gamma_points = _counting(monkeypatch, "_gamma_rows")
    for l, want in want_phi.items():
        phi_points.clear()
        got = phi_values(l, lam)
        assert sum(phi_points) == distinct, l
        assert got.tobytes() == want[0].tobytes(), l
    table = gamma_values(range(q), k, lam)
    assert sum(gamma_points) == distinct
    assert table.tobytes() == want_gamma.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "mixed", "long"])
def test_phi_rows_equal_their_one_index_calls_and_the_parent_kernel(kind):
    # one pass over several indices shares each slice's exp(z) and
    # recurrence; every row keeps the bits and dtype of its own call, and
    # of the one-index kernel it replaced run on the whole diagonal at once
    lam = _blocking_diagonals()[kind]
    cases = [range(MAX_INDEX + 1), range(1, 4), (3, 1, 3)]
    if kind == "long":
        cases = [range(1, 4), (5, 2)]
    for rows in cases:
        table = phi_values(rows, lam)
        assert table.shape == (len(rows), lam.size)
        for row, l in zip(table, rows):
            one = phi_values(l, lam)
            assert (row.dtype, row.tobytes()) == (one.dtype, one.tobytes()), (kind, rows, l)
            want = _plain(lambda z: _parent_phi_values(l, z)[None], lam)
            assert row.tobytes() == want[0].tobytes(), (kind, rows, l)
    diag = phifun.KeyedDiagonal(lam)
    table = phifun._rows(partial(phifun._phi_rows, range(1, 4)), 3, diag)
    assert table.shape == (3, diag.distinct.size)
    assert diag.scatter(table).tobytes() == phi_values(range(1, 4), lam).tobytes()


def test_phi_rows_kernel_equals_the_parent_kernel_and_reports_nothing():
    # the shared recurrence also runs where each row's series takes over,
    # down to z = 0, and its division by zero and overflow there are
    # discarded without a warning (the series' own underflow at 1e-300 is
    # the parent's too)
    rng = np.random.default_rng(21)
    z = np.concatenate([
        rng.normal(size=400) * 12 + 1j * rng.normal(size=400) * 12,
        [0.0, 1e-300, -1e-300j, 1e-8 + 1e-8j, 0.3, -4.0],
        -np.linspace(0.0, 60.0, 50) + 0j,
    ])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        table = phifun._phi_rows(range(MAX_INDEX + 1), z)
    for l, row in enumerate(table):
        assert row.tobytes() == _parent_phi_values(l, z).tobytes(), l
        assert phifun._phi_rows((l,), z)[0].tobytes() == row.tobytes(), l


def test_phi_contour_rejects_bad_index_sequences():
    for bad in ((), (1, MAX_INDEX + 1), (-1,)):
        with pytest.raises(ValueError, match="phi index"):
            phi_values(bad, np.array([-1.0]))


def test_eval_phi_exprs_takes_one_pass_per_scale_across_a_call(monkeypatch):
    lam = _blocking_diagonals()["mixed"]
    exprs = [phi(1) - 3 * phi(2) + phi(3), psi(1, Fraction(1, 2)), exp_term(1, Fraction(1, 2)),
             phi(2, 1, 0.5) + phi(4, 2), const_term(2), phi(1, 1j)]
    clear_eval_cache()
    want = [eval_phi_expr(e, lam) for e in exprs]  # one call per expression
    clear_eval_cache()
    diag = phifun.KeyedDiagonal(lam)
    calls, plain = [], phifun._rows

    def counting(kernel, nrows, diag, scale=None):
        calls.append(tuple(kernel.args[0]))  # the phi indices of the pass
        return plain(kernel, nrows, diag, scale)

    monkeypatch.setattr(phifun, "_rows", counting)
    try:
        got = phifun.eval_phi_exprs(exprs, diag)
        # scale 1 takes phi_1..phi_4, scale 1/2 phi_1 and phi_2
        assert sorted(calls) == [(1, 2), (1, 2, 3, 4)]
        for e, g, w in zip(exprs, got, want):
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), e
            assert not g.flags.writeable
        again = phifun.eval_phi_exprs(exprs, diag)  # every expression is cached
        assert len(calls) == 2 and all(a is g for a, g in zip(again, got))
        # a cached expression beside an uncached one: only the latter's terms
        mixed = phifun.eval_phi_exprs([exprs[0], phi(5) + phi(2)], diag)
        assert calls[2:] == [(2, 5)] and mixed[0] is got[0]
        assert {key[0] for key, _ in phifun._EVAL_CACHE.items()} == {"expr"}
    finally:
        clear_eval_cache()


def test_gamma_table_memory_is_bounded_by_block_budget():
    # one q = 6 table on 2**16 distinct complex entries: the table itself
    # (q times one row's bytes) plus a fixed multiple of the block budget
    # for the batched kernel's temporaries, with no table-sized copies
    n, q = 1 << 16, 6
    rng = np.random.default_rng(6)
    lam = -np.abs(rng.normal(size=n)) * 20 + 1j * rng.normal(size=n) * 20
    assert np.unique(lam).size == n
    tracemalloc.start()
    try:
        table = gamma_values(range(q), 5, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (q, n) and np.all(np.isfinite(table))
    bound = 32 * phifun._BLOCK_BYTES + q * table[0].nbytes
    assert peak < bound, (peak, bound)


def test_gamma_tables_are_cached_and_evicted_with_phi_arrays(monkeypatch):
    n, q = 256, 4
    diag = phifun.KeyedDiagonal(-np.linspace(0.0, 40.0, n) + 0.5j)
    table_bytes = q * n * 16
    monkeypatch.setattr(phifun._EVAL_CACHE, "budget", 2 * table_bytes)
    clear_eval_cache()
    try:
        first = phifun.gamma_tables(q, (1,), diag)[0]
        assert not first.flags.writeable
        assert first.tobytes() == gamma_values(range(q), 1, diag.values).tobytes()
        assert phifun.gamma_tables(q, (1,), diag)[0] is first  # a hit
        for k in (2, 3):
            phifun.gamma_tables(q, (k,), diag)[0]
        # least recently used first out, under the one byte budget
        assert [key[:3] for key, _ in phifun._EVAL_CACHE.items()] == [
            ("gamma", q, 2), ("gamma", q, 3)]
        assert phifun._EVAL_CACHE.nbytes == 2 * table_bytes
        phifun.gamma_tables(q, (2,), diag)[0]  # a hit makes it the most recent
        eval_phi_expr(phi(1), diag)  # the expression alone is cached
        assert [key[:3] for key, _ in phifun._EVAL_CACHE.items()] == [
            ("gamma", q, 2), ("expr", ((1, 1.0, 1 + 0j),), diag.digest)]
        assert phifun._EVAL_CACHE.nbytes == table_bytes + n * 16
        again = phifun.gamma_tables(q, (1,), diag)[0]  # evicted, so evaluated anew
        assert again is not first and again.tobytes() == first.tobytes()
        assert [key[0] for key, _ in phifun._EVAL_CACHE.items()] == ["expr", "gamma"]
    finally:
        clear_eval_cache()


def test_gamma_tables_take_cached_ones_and_make_the_rest_in_one_pass(monkeypatch):
    n, q = 64, 5
    diag = phifun.KeyedDiagonal(-np.linspace(0.0, 40.0, n) + 0.5j)
    want = [gamma_values(range(q), k, diag.values).tobytes() for k in range(1, q)]
    clear_eval_cache()
    try:
        cached = phifun.gamma_tables(q, (2,), diag)[0]
        passes, kernel = [], phifun._gamma_rows
        monkeypatch.setattr(phifun, "_gamma_rows",
                            lambda rows, ks, z: passes.append(tuple(ks)) or kernel(rows, ks, z))
        tables = phifun.gamma_tables(q, range(1, q), diag)
        again = phifun.gamma_tables(q, range(1, q), diag)
        assert passes == [(1, 3, 4)]  # one pass, for the tables not cached
        assert tables[1] is cached and all(a is b for a, b in zip(again, tables, strict=True))
        assert sorted(key[:3] for key, _ in phifun._EVAL_CACHE.items()) == [
            ("gamma", q, k) for k in range(1, q)]
        assert not any(table.flags.writeable for table in tables)
        assert [table.tobytes() for table in tables] == want
    finally:
        clear_eval_cache()


# ---------------------------------------------------------------------------
# the distinct-entry split


def _groups(inverse, n):
    """The partition an inverse index (None: the identity) makes of n
    entries, as labels numbered in order of first occurrence, so that two
    splits group alike exactly when their labels are equal."""
    inv = np.arange(n) if inverse is None else np.asarray(inverse).reshape(-1)
    _, first, labels = np.unique(inv, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[labels.reshape(-1)]


def _check_real_split(lam):
    """The float64 split of a real diagonal groups its entries as the
    complex np.unique does, and scatters its distinct entries back."""
    diag = phifun.KeyedDiagonal(lam)
    assert diag.real
    want, want_inverse = np.unique(lam.reshape(-1), return_inverse=True, equal_nan=False)
    assert diag.distinct.dtype == np.complex128 and diag.distinct.ndim == 1
    assert diag.distinct.size == want.size and diag.shape == lam.shape
    assert np.array_equal(_groups(diag.inverse, lam.size), _groups(want_inverse, lam.size))
    assert np.array_equal(diag.scatter(diag.distinct), lam, equal_nan=True)
    if diag.inverse is None and lam.size:  # the identity split is the diagonal itself
        assert np.shares_memory(diag.distinct, lam)


_SPLIT_POOL = [0.0, -0.0, 1.5, -1.5, -40.0, 5e-324, -2.5e-7, np.nan, np.inf, -np.inf]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SPLIT_POOL), st.booleans()), max_size=40),
       st.sampled_from([(-1,), (2, -1), (1, 2, -1)]))
def test_real_split_groups_as_the_complex_unique(entries, shape):
    # -0.0 and +0.0 real parts, either sign of zero imaginary part, NaNs
    # (each its own group) and infinities
    lam = np.array([complex(x, -0.0 if neg else 0.0) for x, neg in entries], dtype=np.complex128)
    if lam.size % 2 or len(shape) == 1:
        shape = (-1,)
    _check_real_split(lam.reshape(shape))


def test_real_split_of_empty_and_0d_diagonals():
    for lam in (np.zeros(0, complex), np.zeros((0, 3), complex),
                np.array(-0.0 + 0j), np.array(complex(np.nan, -0.0))):
        _check_real_split(lam)
        assert phifun.KeyedDiagonal(lam).inverse is None


def test_split_of_a_float64_diagonal_has_complex128_distinct_entries():
    # the identity split of a float64 diagonal has complex128 distinct
    # entries, so its phi rows are those of the complex diagonal, bit for bit
    lam = -np.linspace(0.01, 40.0, 5000)
    diag, want = phifun.KeyedDiagonal(lam), phifun.KeyedDiagonal(lam.astype(np.complex128))
    assert diag.real and diag.inverse is None and diag.distinct.dtype == np.complex128
    kernel = partial(phifun._phi_rows, range(1, 4))
    assert phifun._rows(kernel, 3, diag).tobytes() == phifun._rows(kernel, 3, want).tobytes()


def test_keyed_diagonal_splits_once_and_keeps_the_identity_split():
    lam = -np.array([[0.0, 1.0, 4.0], [1.0, 2.0, 5.0]]) * 0.1 + 0j
    diag = phifun.KeyedDiagonal(lam)
    assert "_unique" not in vars(diag) and "digest" not in vars(diag)  # both lazy
    first = diag.distinct
    assert diag.distinct is first and first.size == 5
    assert diag.scatter(first[None]).shape == (1, 2, 3)
    distinct = phifun.KeyedDiagonal(np.array([-1.0, 2.0 - 1j, 3j]))
    assert distinct.inverse is None
    assert distinct.distinct.base is distinct.values  # no copy


def _plain_expr(expr, lam):
    """eval_phi_expr without any split: every term at every entry, the
    phi terms by the plain per-entry kernel, added in term order."""
    lam = np.asarray(lam, dtype=np.complex128)
    real = not lam.imag.any() and all(complex(t.coeff).imag == 0 for t in expr.terms)
    out = np.zeros(lam.shape, dtype=np.float64 if real else np.complex128)
    for t in expr.terms:
        coeff = complex(t.coeff).real if real else complex(t.coeff)
        z = float(t.scale) * lam
        if t.index == 0 and t.scale == 0:
            out += coeff
        elif t.index == 0:
            vals = np.exp(z)
            out += coeff * (vals.real if real else vals)
        else:
            out += coeff * _plain(lambda u: _parent_phi_values(t.index, u)[None], z)[0]
    return out


def _split_diagonals():
    k = np.fft.fftfreq(8, 1 / 8)
    real = -0.3 * (k[:, None] ** 2 + k[None, :5] ** 2)  # -0.0 at the origin
    real[7, 4] = 0.0  # and a +0.0 beside it
    real[3, 2] = 7.5  # a growing mode
    cplx = -1j * 0.05 * np.add.outer(k ** 2, k[:3] ** 2) - 0.25
    mixed = np.tile(np.concatenate([real[:3].ravel(), cplx[:2].ravel(), [2j, -0.0 + 0j]]), 3)
    return {"real": real[None], "complex": cplx, "mixed": mixed.reshape(3, -1)}


_SPLIT_EXPRS = [
    phi(1) - 3 * phi(2) + 4 * phi(3, 1, Fraction(1, 2)),
    exp_term(1, Fraction(1, 2)) + exp_term(Fraction(2, 3)) + const_term(Fraction(1, 6)),
    phi(1, Fraction(1, 2), Fraction(1, 2)) + exp_term(-1) - const_term(Fraction(1, 3)) + phi(5),
    phi(2, 0.5 + 0.25j) + exp_term(1j, Fraction(1, 2)) + const_term(2),
]


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_keyed_expressions_and_gamma_tables_equal_the_plain_path(kind):
    # evaluated on the distinct entries and scattered once, every entry
    # keeps the bits (and the whole array the dtype) of the plain path
    lam = _split_diagonals()[kind]
    clear_eval_cache()
    try:
        diag = phifun.KeyedDiagonal(lam)
        assert diag.distinct.size < lam.size
        for expr in _SPLIT_EXPRS:
            got, want = eval_phi_expr(expr, diag), _plain_expr(expr, lam)
            assert got.shape == lam.shape and got.dtype == want.dtype, expr
            assert got.tobytes() == want.tobytes(), expr
        q, k = 4, 3
        table = phifun.gamma_tables(q, (k,), diag)[0]
        assert table.shape == (q, *lam.shape)
        assert table.dtype == (np.complex128 if lam.imag.any() else np.float64)
        for l in range(q):
            want = _plain(lambda z: _parent_gamma_values(l, k, z)[None], lam)[0]
            assert table[l].tobytes() == want.tobytes(), l
    finally:
        clear_eval_cache()


def _desk_sh3(size=None):
    from phistep import problems

    problem = problems.get_problem("sh3")
    return problems.discretize(problem, problems.default_grid(problem, size=size))


def test_prepare_scheme_splits_the_diagonal_once(monkeypatch):
    from phistep.integrator import prepare_scheme

    system = _desk_sh3()
    calls, plain = [], np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    clear_eval_cache()
    monkeypatch.setattr(np, "unique", counting)
    try:
        prepare_scheme("etdrk4", 0.125, system.lam)
    finally:
        clear_eval_cache()
    assert len(calls) == 1


def test_split_memory_is_a_small_multiple_of_the_real_diagonal():
    # the split of a 3D real diagonal sorts its float64 real parts: its
    # peak stays within 6 times their bytes (the complex sort needs over
    # 7), and it keeps the inverse index and the few distinct entries
    system = _desk_sh3(size=32)
    diag = phifun.KeyedDiagonal(0.1 * system.lam)
    assert diag.real and diag.values.ndim == 4
    real_bytes = 8 * diag.values.size
    tracemalloc.start()
    try:
        distinct = diag.distinct
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert distinct.size * 10 < diag.values.size
    assert peak <= 6 * real_bytes, peak / real_bytes
    assert kept <= diag.inverse.nbytes + distinct.nbytes + 16 * 1024


def test_phi_term_rows_have_distinct_length_and_only_expressions_are_cached(monkeypatch):
    from phistep.integrator import prepare_scheme

    system = _desk_sh3()
    distinct = np.unique(0.125 * system.lam).size
    assert distinct * 10 < system.lam.size
    sizes, plain = [], phifun._rows

    def sizing(kernel, nrows, diag, scale=None):
        sizes.append(diag.distinct.size)
        return plain(kernel, nrows, diag, scale)

    clear_eval_cache()
    monkeypatch.setattr(phifun, "_rows", sizing)
    try:
        prepare_scheme("etdrk4", 0.125, system.lam)
        kinds = {key[0] for key, _ in phifun._EVAL_CACHE.items()}
        exprs = [v for _, v in phifun._EVAL_CACHE.items()]
    finally:
        clear_eval_cache()
    assert sizes == [distinct, distinct]  # phi_1..phi_3 at z, phi_1 at z/2
    assert kinds == {"expr"}
    assert exprs and all(v.shape == system.lam.shape for v in exprs)


# ---------------------------------------------------------------------------
# PhiExpr algebra


def test_phiterm_validation():
    with pytest.raises(ValueError):
        PhiTerm(1, 13)
    with pytest.raises(ValueError):
        PhiTerm(1, 2, 0)  # zero scale reserved for the constant form
    with pytest.raises(ValueError):
        PhiTerm(float("nan"), 1)
    with pytest.raises(ValueError):
        PhiTerm(1, 1, 1j)


def test_expr_merge_and_zero():
    e = phi(1) - phi(2) + phi(2) - phi(1)
    assert e.is_zero()
    e2 = phi(2, Fraction(3, 2)) + phi(2, Fraction(1, 2))
    assert e2.terms == (PhiTerm(Fraction(2), 2, Fraction(1)),)


def test_expr_scale_merging_across_exact_and_float():
    # Fraction(1, 2) and 0.5 are the same scale
    e = phi(1, 1, Fraction(1, 2)) + phi(1, 1, 0.5)
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 2


def test_expr_at_zero_exact():
    e = phi(1) - 3 * phi(2) + 4 * phi(3)  # the etdrk4 B1 combination
    assert e.at_zero() == Fraction(1, 6)
    assert psi(1, Fraction(1, 2)).at_zero() == Fraction(1, 2)
    assert const_term(Fraction(1, 6)).at_zero() == Fraction(1, 6)
    assert (phi(1) - phi(1)).at_zero() == 0


def test_expr_at_zero_requires_rational():
    with pytest.raises(ValueError):
        phi(1, 0.25 + 0j).at_zero()


def test_psi_is_scaled_phi():
    e = psi(2, Fraction(1, 2))
    assert e.terms == (PhiTerm(Fraction(1, 4), 2, Fraction(1, 2)),)
    assert psi(1, 0).is_zero()


def test_scale_argument():
    e = (phi(1) + exp_term(1, 2)).scale_argument(Fraction(1, 2))
    assert e.terms == (
        PhiTerm(Fraction(1), 0, Fraction(1)),
        PhiTerm(Fraction(1), 1, Fraction(1, 2)),
    )


def test_expr_evaluation_matches_scalar_combination():
    e = phi(1, Fraction(1, 2)) - phi(3, 2, Fraction(1, 2))  # (1/2)phi1(z) - 2 phi3(z/2)
    lam = np.array([-4.0, -0.3, 2.5])
    got = eval_phi_expr(e, lam)
    want = 0.5 * phi_values(1, lam) - 2.0 * phi_values(3, 0.5 * lam)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_expr_evaluation_constant_term():
    e = const_term(Fraction(1, 6)) + phi(1)
    lam = np.array([-2.0, -1.0])
    got = eval_phi_expr(e, lam)
    want = 1.0 / 6.0 + phi_values(1, lam)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_expr_evaluation_real_diag_is_real_and_cached():
    clear_eval_cache()
    e = phi(1) + phi(2, -1)
    lam = -np.linspace(0.1, 900.0, 64)
    first = eval_phi_expr(e, lam)
    assert np.all(first.imag == 0.0)
    assert not first.flags.writeable
    second = eval_phi_expr(e, lam)
    assert second is first  # cache hit returns the stored array


def test_expr_evaluation_rejects_non_expr():
    with pytest.raises(TypeError):
        eval_phi_expr(phi(1).terms[0], np.array([-1.0]))  # a bare PhiTerm


def test_exponential_terms_are_np_exp():
    clear_eval_cache()
    lam = np.concatenate([
        -np.linspace(0.0, 40.0, 33), 1j * np.linspace(-30.0, 30.0, 17), [-2.0 + 3.0j, 5.0],
    ])
    for scale in (Fraction(1, 2), 1, Fraction(3, 4)):
        got = eval_phi_expr(exp_term(1, scale), lam)
        want = np.exp(float(scale) * lam.astype(np.complex128))
        assert got.tobytes() == want.tobytes(), scale
        via_kernel = phi_values(0, float(scale) * lam)
        assert np.max(np.abs(got - via_kernel) / np.abs(got)) <= 1e-13, scale
    real = eval_phi_expr(exp_term(2, Fraction(1, 2)), -np.linspace(0.0, 9.0, 10))
    assert np.all(real.imag == 0.0)


def test_eval_cache_is_bounded_in_bytes(monkeypatch):
    budget = 200 * 1024
    cache = phifun._EVAL_CACHE
    monkeypatch.setattr(cache, "budget", budget)
    clear_eval_cache()
    rng = np.random.default_rng(3)
    e = phi(1) + phi(2, -1, Fraction(1, 2))
    try:
        for _ in range(12):
            # 4096 distinct real entries: 32 KiB per cached array, three per call
            lam = -np.abs(rng.normal(size=4096)) * 30
            out = eval_phi_expr(e, lam)
            held = sum(v.nbytes for _, v in cache.items())
            assert held <= budget
            assert held == cache.nbytes
            assert eval_phi_expr(e, lam) is out  # the newest entry survives
        # keys name the diagonal by a digest, not by its bytes
        assert all(len(repr(key)) < 300 for key, _ in cache.items())
        # an array larger than the whole budget is returned but not kept
        big = eval_phi_expr(phi(1), -np.linspace(0.0, 50.0, 40000))
        assert big.nbytes > budget
        assert all(v is not big for _, v in cache.items())
    finally:
        clear_eval_cache()


def test_array_cache_put_on_a_held_key_replaces_its_array():
    cache = phifun.ArrayCache()
    cache.put("key", np.zeros(8))
    newer = cache.put("key", np.ones(3))
    assert cache.nbytes == newer.nbytes == 24
    assert len(cache.items()) == 1
    assert cache.get("key") is newer


def test_empty_diagonal_gives_empty_tables():
    from phistep.integrator import prepare_scheme

    empty = np.array([])
    row = phi_values(1, empty)
    assert row.shape == (0,) and row.dtype == np.float64
    table = gamma_values(range(3), 2, empty)
    assert table.shape == (3, 0) and table.dtype == np.float64
    assert gamma_values(1, 2, empty.astype(complex)).shape == (0,)
    scheme = prepare_scheme("etdrk4", 0.1, empty)
    (row_sum, operand), *stage_terms = scheme.rows[-1][2]
    assert operand == 0  # the output row's sum, on N(u^n)
    assert row_sum.shape == (0,) and row_sum.dtype == np.float64
    assert all(b.shape == (0,) for b, _ in stage_terms)
