"""Evaluation of the phi and gamma functions of exponential integrators.

The phi functions are defined by

    phi_0(z) = exp(z),      phi_{l+1}(z) = (phi_l(z) - 1/l!) / z,

with the removable singularity at z = 0 filled by phi_l(0) = 1/l!.  The
scaled variants psi_{l,m}(z) = c_m^l * phi_l(c_m * z) appear as stage
coefficients; both are covered by the PhiTerm/PhiExpr containers below.

The gamma functions drive multistep starting procedures:

    gamma_0(k, z) = (exp(k z) - 1) / z,
    gamma_j(k, z) = ( sum_{m=1..j} ((-1)^(m-1)/m) gamma_{j-m}(k, z)
                      - binom(k, j) ) / z,

where binom(k, j) = 0 once j > k.

Evaluating either family by its defining formula in float64 cancels
catastrophically for small |z|.  Kassam & Trefethen (SIAM J. Sci. Comput.
26 (2005)) cure this with a mean over a contour around each argument;
the kernels here cure it as Cox & Matthews (J. Comput. Phys. 176 (2002))
do, with a truncated series below a switch radius and the recurrence
above it (_phi_rows, _gamma_rows), and the gamma kernels in long double.
Against 80-digit references, on the diagonals of every problem, they
keep phi_1..phi_7 within 1e-13 and gamma within 1e-14 relative error,
so no contour mean is taken: a diagonal's values are the kernels'
values at its entries.

A KeyedDiagonal is keyed, tested for realness and split into its
distinct entries once; the kernels run on the distinct entries in
slices of bounded size (_rows), so eval_phi_exprs and gamma_tables
evaluate, scale and accumulate at distinct length and scatter each
result back to every repeat once.

Every kernel call does all of its rows at once, each row with the bits
of its own one-row evaluation.  The phi recurrence yields phi_0..phi_l
on its way to phi_l, so phi_values also takes a sequence of indices and
evaluates those rows in one pass (_phi_rows): exp(z) and the recurrence
are shared, and so is one series loop over the entries near zero for
any row, in which each row stops at its own last term.  Every phi term
of a row program that shares an argument scale (ETDRK4's phi_1, phi_2
and phi_3 at z) is thus one pass: eval_phi_exprs takes all of a
scheme's expressions at once and groups the phi terms of the uncached
ones by scale.

The gamma kernels run in long double.  Their series coefficients are
exact rationals, built once per (j, k) in integer arithmetic and kept as
long-double scalars for an in-place Horner loop.  A multistep starter
needs the table gamma_0..gamma_{q-1}(k, .) for each k < q: one gamma
pass (_gamma_rows) runs the recurrence for every k at once and one
Horner loop over all q * (q - 1) rows, so a starter's tables take one
pass per (q, diagonal).  gamma_tables keeps each table in the same
byte-bounded cache as the expression arrays of eval_phi_exprs, keyed by
(q, k) and the diagonal's digest, and makes the missing ones in one
pass; gamma_values (one k, one or several j) runs the same kernel.
"""
from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from numbers import Rational
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_INDEX",
    "PhiTerm",
    "PhiExpr",
    "phi",
    "exp_term",
    "const_term",
    "psi",
    "phi_scalar",
    "phi_values",
    "gamma_scalar",
    "gamma_values",
    "eval_phi_expr",
    "eval_phi_exprs",
    "clear_eval_cache",
]

# Highest phi/gamma order supported; the scheme catalog never needs more.
MAX_INDEX = 12

_SERIES_TOL = 1e-18
_SERIES_MAX_TERMS = 200

Scalar = Union[int, float, complex, Fraction]


def _series_radius(index: int) -> float:
    # The e^z-seeded recurrence loses roughly eps * e^(Re z) * l! / |z|^l
    # of relative accuracy, so the series must cover |z| up to O(l).
    # 0.7*l keeps both branches at <= ~1e-14 relative error for l <= 12
    # (measured against an 80-digit oracle).
    return max(0.5, 0.7 * index)


# ---------------------------------------------------------------------------
# scalar / vectorized kernels


def _phi_rows(rows: Sequence[int], z: np.ndarray) -> np.ndarray:
    """phi_l for each l in rows at every entry of a complex ndarray,
    stacked on a leading axis.

    exp(z) and the upward recurrence phi_{l+1} = (phi_l - 1/l!) / z run
    once, on all of z, up to the top index; each requested index >= 1
    then takes the truncated series sum_j z^j / (j + l)! where |z| is
    below its switch radius, where the recurrence is unstable (Kassam &
    Trefethen 2005).  The recurrence there, overflow and division by
    z = 0 included, is discarded, so its warnings are not reported.

    One series loop serves every row, on the entries near for any of
    them.  Each row tests convergence on its own near entries only and
    is frozen once converged, so it stops at the term of a one-row
    series over those entries; every step is entrywise and in place, so
    each row has the bits of a one-index evaluation.
    """
    out = np.empty((len(rows), *z.shape), dtype=np.complex128)
    with np.errstate(all="ignore"):
        p = np.exp(z)
        for l in range(max(rows) + 1):
            if l:
                p -= 1.0 / math.factorial(l - 1)
                p /= z
            for row, index in zip(out, rows):
                if index == l:
                    row[...] = p
    del p  # freed before the series' temporaries arrive
    series = [(row, index) for row, index in zip(out, rows) if index]
    indices = np.array([index for _, index in series])[:, None]
    near = np.abs(z) < np.array([_series_radius(index) for _, index in series])[:, None]
    union = near.any(axis=0)
    if not union.any():
        return out
    zn, own = z[union], near[:, union]
    term = np.empty(own.shape, dtype=np.complex128)
    term[...] = 1.0 / np.array([math.factorial(index) for _, index in series])[:, None]
    total = term.copy()
    active, far = own.any(axis=1)[:, None], ~own
    for j in range(1, _SERIES_MAX_TERMS + 1):
        term *= zn
        term /= indices + j
        np.add(total, term, out=total, where=active)
        converged = far | (np.abs(term) <= _SERIES_TOL * np.abs(total))
        active &= ~converged.all(axis=1, keepdims=True)
        if not active.any():
            break
    for (row, _), close, keep, values in zip(series, near, own, total):
        row[close] = values[keep]
    return out


# gamma values feed starting procedures only (tiny arrays, precompute-time),
# so both gamma kernels run in extended precision where the platform has it;
# x86 long double buys ~3 digits, enough to flatten the mid-|z| zone where
# series cancellation and recurrence amplification overlap for j, k ~ 8.
_LD = np.longdouble if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps else np.float64
_CLD = np.complex256 if _LD is np.longdouble and hasattr(np, "complex256") else np.complex128


def _gamma_series_terms(j: int, k: int) -> int:
    # Coefficients behave like k^(n+1)/(n+1)!; keep terms until the tail at
    # the switch radius is far below the 1e-18 working tolerance.
    x = max(_gamma_series_radius(j, k) * k, 1e-9)
    n = 1
    while n * math.log(x) - math.lgamma(n + 2) > math.log(1e-22):
        n += 1
    return max(n + 8, 24)


def _gamma_series_coeffs(j: int, k: int) -> tuple[tuple[float, float], ...]:
    """Maclaurin coefficients of gamma_j(k, .) as (hi, lo) double pairs.

    The gamma recurrence is composed with the series of
    gamma_0(k, z) = sum_n k^(n+1) z^n / (n+1)! on integer numerators: row
    jj is held over the denominator (nterms+1)! * L^jj with L = lcm(1..j),
    so the recurrence weight 1/m becomes the integer L^m / m and every
    coefficient of gamma_j shares the denominator (nterms+1)! * L^j.  The
    constant term of each recurrence numerator must cancel binom(k, jj)
    exactly, which doubles as a consistency check on the recurrence.

    hi is the exact coefficient correctly rounded to a double and lo the
    exact remainder correctly rounded (both by integer true division), so
    hi + lo summed in long double recovers the coefficient to ~1e-35
    without int -> longdouble pitfalls.
    """
    nterms = _gamma_series_terms(j, k)
    base = math.factorial(nterms + 1)
    lcm = math.lcm(*range(1, j + 1))
    rows = [[k ** (n + 1) * (base // math.factorial(n + 1)) for n in range(nterms + 1)]]
    for jj in range(1, j + 1):
        numer = [0] * (nterms + 1)
        for m in range(1, jj + 1):
            w = (lcm**m // m) * (-1) ** (m - 1)
            numer = [a + w * p for a, p in zip(numer, rows[jj - m])]
        numer[0] -= math.comb(k, jj) * base * lcm**jj
        if numer[0] != 0:
            raise AssertionError(
                f"gamma_{j}(k={k}) series: the recurrence lost its removable "
                f"singularity at level {jj}: its constant term does not cancel "
                f"binom({k}, {jj})")
        rows.append(numer[1:] + [0])
    denom = base * lcm**j
    out = []
    for p in rows[j]:
        hi = p / denom
        a, b = hi.as_integer_ratio()
        out.append((hi, (p * b - a * denom) / (denom * b)))
    return tuple(out)


@lru_cache(maxsize=(MAX_INDEX + 1) * MAX_INDEX)
def _gamma_horner(j: int, k: int) -> tuple:
    """The series coefficients of gamma_j(k, .) as long-double scalars
    _LD(hi) + _LD(lo), highest power first."""
    return tuple(_LD(hi) + _LD(lo) for hi, lo in reversed(_gamma_series_coeffs(j, k)))


def _gamma_horner_rows(rows: Sequence[int], ks: Sequence[int]) -> np.ndarray:
    """_gamma_horner(j, k) for each k in ks and j in rows (k-major) as
    long-double columns, shaped (terms, len(ks) * len(rows), 1).  A row
    with fewer terms is padded with leading zeros: Horner's rule from a
    zero start maps a finite z's zero back to +0 at each of them, so the
    row keeps the bits of its own terms."""
    coeffs = [_gamma_horner(j, k) for k in ks for j in rows]
    terms = max(map(len, coeffs))
    out = np.zeros((terms, len(coeffs), 1), dtype=_LD)
    for r, c in enumerate(coeffs):
        out[terms - len(c):, r, 0] = c
    return out


def _gamma_series_radius(j: int, k: int) -> float:
    # The series is conditioned like e^(k|z|) (coefficients ~ k^n/n!), the
    # recurrence like |z|^(-j); the switch balances the two.  Calibrated
    # against an 80-digit oracle for j, k <= 8.
    return max(0.5, min(0.7 * max(j, 1), 7.0 / max(k, 1)))


def _gamma_recurrence(top: int, ks: Sequence[int], z: np.ndarray) -> list:
    """gamma_0..gamma_top(k, .) by the upward recurrence, in long double,
    for every k in ks at once: row jj has shape (len(ks), z.size).

    Every step is in place, which keeps the bits of the plain expressions
    for each k and holds the temporaries to two arrays per row.  The
    recurrence is discarded wherever a row's series takes over, so its
    overflow or division by z = 0 there is harmless and not reported.
    """
    zl = z.astype(_CLD)
    with np.errstate(all="ignore"):
        gamma0 = np.array(ks, dtype=_LD)[:, None] * zl
        np.exp(gamma0, out=gamma0)
        gamma0 -= _LD(1)
        gamma0 /= zl
        rows = [gamma0]
        scratch = np.empty_like(gamma0)
        for jj in range(1, top + 1):
            acc = np.zeros_like(gamma0)
            for m in range(1, jj + 1):
                acc += np.multiply(_LD((-1) ** (m - 1)) / _LD(m), rows[jj - m], out=scratch)
            acc -= np.array([math.comb(k, jj) for k in ks], dtype=_LD)[:, None]
            acc /= zl
            rows.append(acc)
    return rows


def _gamma_rows(rows: Sequence[int], ks: Sequence[int], z: np.ndarray) -> np.ndarray:
    """gamma_j(k, .) for each k in ks and j in rows at every entry of z,
    stacked on a leading axis, k-major: row i * len(rows) + r is
    gamma_{rows[r]}(ks[i], .).

    One long-double recurrence runs rows 0..max(rows) for every k on all
    of z; each (k, j) row then takes its own truncated series where |z|
    is below its switch radius.  The series is one Horner loop over all
    rows, on the entries near for any of them, each row with its own
    coefficients (_gamma_horner_rows); a row keeps its own near entries
    only.  Each entry gets the bits of a one-row evaluation, since every
    operation acts entrywise.  Only the entries the series does not
    replace are cast from the recurrence: near z = 0 it can exceed the
    complex128 range, and the cast would warn.
    """
    recurrence = _gamma_recurrence(max(rows), ks, z)
    radii = [_gamma_series_radius(j, k) for k in ks for j in rows]
    near = np.abs(z) < np.array(radii)[:, None]
    out = np.empty((len(radii), *z.shape), dtype=np.complex128)
    parts = (recurrence[j][i] for i in range(len(ks)) for j in rows)
    for row, part, close in zip(out, parts, near):
        np.copyto(row, part, where=~close)
    del recurrence  # freed before the series' temporaries arrive
    union = near.any(axis=0)
    if union.any():
        zl = z[union].astype(_CLD)
        acc = np.zeros((len(radii), zl.size), dtype=_CLD)
        for c in _gamma_horner_rows(rows, ks):
            acc *= zl
            acc += c
        for row, close, values in zip(out, near, acc):
            row[close] = values[close[union]]
    return out


# ---------------------------------------------------------------------------
# values over diagonals


# Byte budget of the entries handed to a kernel in one call (4096
# complex128 entries).  A kernel's temporaries are a fixed multiple of its
# input (the gamma recurrence holds up to MAX_INDEX + 1 long-double copies
# per k, and a gamma pass over several k takes a slice narrowed by their
# number), so this bounds the working memory of an evaluation whatever the
# diagonal's length.
_BLOCK_BYTES = 1 << 16


def digest(*arrays: np.ndarray) -> str:
    """SHA-1 over the shape, dtype and bytes of each array: a cache key
    that names the arrays without holding them."""
    sha = hashlib.sha1()
    for arr in map(np.ascontiguousarray, arrays):
        sha.update(repr((arr.shape, arr.dtype.str)).encode())
        sha.update(arr)
    return sha.hexdigest()


class KeyedDiagonal:
    """An operator diagonal keyed, tested for realness and split once for
    every phi and gamma evaluation over it.

    values: the entries as contiguous complex128 (diag itself if it
    already is, which must then stay unchanged); shape: np.shape(diag), 0-d
    for a scalar; real: every imaginary part is zero (of either sign).
    digest, distinct (1-D complex128) and inverse (the index that puts
    distinct back, in C order) are worked out on first use and kept.  The
    split is one np.unique (NaNs stay apart), on the float64 real parts
    when real, which group as the complex entries do and sort several
    times faster; without a repeated entry inverse is None and distinct
    is values, not a copy.
    """

    def __init__(self, diag):
        self.shape = np.shape(diag)
        self.values = np.ascontiguousarray(diag, dtype=np.complex128)
        self.real = not self.values.imag.any()

    @cached_property
    def digest(self) -> str:
        return digest(self.values)

    @cached_property
    def _unique(self) -> tuple:
        flat = self.values.reshape(-1)
        distinct, inverse = np.unique(flat.real if self.real else flat,
                                      return_inverse=True, equal_nan=False)
        if distinct.size == flat.size:
            return flat, None
        return distinct.astype(np.complex128, copy=False), inverse.reshape(-1)

    @property
    def distinct(self) -> np.ndarray:
        return self._unique[0]

    @property
    def inverse(self) -> Optional[np.ndarray]:
        return self._unique[1]

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """rows over the distinct entries (last axis) at every entry, shaped
        (*rows.shape[:-1], *shape); without an inverse, a view."""
        lead = rows.shape[:-1]
        if self.inverse is not None:
            rows = np.take(rows, self.inverse, axis=-1)
        return rows.reshape((*lead, *self.shape))


def _tables(kernel, size: int, count: int, diag: KeyedDiagonal,
            scale: Optional[float] = None) -> list:
    """kernel's rows at scale * diag.distinct (diag.distinct itself for
    scale None) as count tables of size rows, each its own array shaped
    (size, distinct.size), so that the cache frees one without the
    others, and left for diag.scatter.

    kernel acts entrywise on a 1-D complex array and stacks its
    count * size rows, table by table, on a new leading axis.  It runs
    once per distinct entry (a 2D Laplacian has O(N) distinct values on
    an N^2 grid), on slices of at most _BLOCK_BYTES // count, so its
    working memory is bounded whatever the diagonal's length: the
    temporaries of a kernel that fills several tables (the gamma pass,
    one per k) grow with their number.  The slicing changes no bit of a
    kernel without a data-dependent stop; the phi series stops on the
    entries of its slice, so the phi kernel fills one table.  The rows
    are float64, the real parts, when diag is real, and complex128
    otherwise.
    """
    # no product for scale None: 1.0 * z can flip the sign of a zero part
    z = diag.distinct if scale is None else scale * diag.distinct
    dtype = np.float64 if diag.real else np.complex128
    out = [np.empty((size, z.size), dtype=dtype) for _ in range(count)]
    width = _BLOCK_BYTES // z.itemsize // count
    for start in range(0, z.size, width):
        block = kernel(z[start : start + width])
        for table, rows in zip(out, block.reshape(count, size, -1)):
            table[:, start : start + width] = rows.real if diag.real else rows
    return out


def _rows(kernel, nrows: int, diag: KeyedDiagonal, scale: Optional[float] = None) -> np.ndarray:
    """_tables' one table of nrows rows."""
    return _tables(kernel, nrows, 1, diag, scale)[0]


def _indices(index, what: str) -> tuple:
    """(single, rows): whether index is one int, and the indices as a
    tuple, each checked to lie in [0, MAX_INDEX]."""
    single = isinstance(index, (int, np.integer))
    rows = (int(index),) if single else tuple(index)
    if not rows or not all(0 <= r <= MAX_INDEX for r in rows):
        raise ValueError(f"{what} index must be in [0, {MAX_INDEX}], got {index}")
    return single, rows


def _values(single: bool, rows: tuple, kernel, lam):
    """kernel's rows at every entry of a scalar or ndarray lam, shaped
    (len(rows), *np.shape(lam)); row 0 alone when single, a complex for
    a scalar lam."""
    diag = KeyedDiagonal(lam)
    table = diag.scatter(_rows(kernel, len(rows), diag))
    if not single:
        return table
    return complex(table[0]) if table.ndim == 1 else table[0]


def phi_values(index, lam):
    """phi_index at a scalar or ndarray of diagonal entries.

    An ndarray gives float64 when all its entries are real, complex128
    otherwise; a scalar gives a complex.

    index may also be a sequence of indices, e.g. range(1, 4): the rows
    are then evaluated in one pass, sharing exp(z) and the recurrence
    (_phi_rows), and returned stacked as an ndarray of shape
    (len(index), *np.shape(lam)).  Every row has the bits of its own
    one-index call.
    """
    single, rows = _indices(index, "phi")
    return _values(single, rows, partial(_phi_rows, rows), lam)


def phi_scalar(index: int, z: complex) -> complex:
    """phi_index(z) for a single complex argument."""
    return complex(phi_values(index, complex(z)))


def gamma_values(j, k: int, lam):
    """gamma_j(k, .) at a scalar or ndarray of diagonal entries, with the
    return types of phi_values.

    j may also be a sequence of indices, e.g. range(q): the rows are then
    evaluated in one pass, sharing the recurrence, and returned stacked
    as in phi_values.  Every row has the bits of its own one-index call.
    gamma_tables keeps such tables in the phi cache.
    """
    single, rows = _indices(j, "gamma")
    if not 1 <= k <= MAX_INDEX:
        raise ValueError(f"gamma step multiplier must be in [1, {MAX_INDEX}], got {k}")
    return _values(single, rows, partial(_gamma_rows, rows, (k,)), lam)


def gamma_scalar(j: int, k: int, z: complex) -> complex:
    """gamma_j(k, z) for a single complex argument."""
    return complex(gamma_values(j, k, complex(z)))


# ---------------------------------------------------------------------------
# symbolic linear combinations of phi terms


def _check_scalar(value, what: str):
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhiTerm:
    """One term coeff * phi_index(scale * z).

    index = 0 encodes an exponential coeff * exp(scale * z); the single
    degenerate combination index = 0, scale = 0 is the canonical constant
    term (needed by integrating-factor tableaux whose entries include plain
    rationals).  Exact Fraction coefficients survive untouched so tableau
    identities hold in rational arithmetic.
    """

    coeff: Scalar
    index: int
    scale: Scalar = 1

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or not 0 <= self.index <= MAX_INDEX:
            raise ValueError(f"phi index must be an int in [0, {MAX_INDEX}], got {self.index!r}")
        _check_scalar(self.coeff, "coeff")
        if isinstance(self.scale, complex):
            raise ValueError("scale must be real")
        _check_scalar(self.scale, "scale")
        if self.scale == 0 and self.index != 0:
            raise ValueError("scale 0 is only allowed for the constant term (index 0)")

    def _key(self):
        # Fraction(1, 2) and 0.5 hash/compare equal, so mixed exact/float
        # scales merge correctly.
        return (self.index, self.scale)


def _as_exact(value):
    """Keep ints as Fractions so symbolic identities stay exact."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    return value


class PhiExpr:
    """Finite linear combination of PhiTerms, closed under +, - and scaling."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[PhiTerm] = ()):
        merged: OrderedDict = OrderedDict()
        for t in terms:
            if not isinstance(t, PhiTerm):
                raise TypeError(f"expected PhiTerm, got {type(t).__name__}")
            key = t._key()
            if key in merged:
                merged[key] = PhiTerm(_add_coeff(merged[key].coeff, t.coeff), t.index, t.scale)
            else:
                merged[key] = PhiTerm(_as_exact(t.coeff), t.index, t.scale)
        self.terms: tuple[PhiTerm, ...] = tuple(
            sorted(
                (t for t in merged.values() if t.coeff != 0),
                key=lambda t: (t.index, float(t.scale)),
            )
        )

    def __add__(self, other: "PhiExpr") -> "PhiExpr":
        if not isinstance(other, PhiExpr):
            return NotImplemented
        return PhiExpr(self.terms + other.terms)

    def __sub__(self, other: "PhiExpr") -> "PhiExpr":
        if not isinstance(other, PhiExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PhiExpr":
        return self * -1

    def __mul__(self, factor) -> "PhiExpr":
        factor = _as_exact(factor)
        return PhiExpr(PhiTerm(t.coeff * factor, t.index, t.scale) for t in self.terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PhiExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def is_zero(self) -> bool:
        return not self.terms

    def at_zero(self) -> Fraction:
        """Exact value at z = 0 (phi_l(0) = 1/l!); requires rational coeffs."""
        total = Fraction(0)
        for t in self.terms:
            if not isinstance(t.coeff, Rational):
                raise ValueError(f"at_zero needs rational coefficients, got {t.coeff!r}")
            total += Fraction(t.coeff) / math.factorial(t.index)
        return total

    def scale_argument(self, factor) -> "PhiExpr":
        """Substitute z -> factor * z."""
        factor = _as_exact(factor)
        return PhiExpr(PhiTerm(t.coeff, t.index, t.scale * factor) for t in self.terms)

    def fingerprint(self) -> tuple:
        """Evaluation identity: terms reduced to plain floats/complex."""
        return tuple((t.index, float(t.scale), complex(t.coeff)) for t in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "PhiExpr(0)"
        bits = []
        for t in self.terms:
            if t.index == 0 and t.scale == 0:
                bits.append(f"{t.coeff}")
            elif t.index == 0:
                bits.append(f"{t.coeff}*exp({t.scale}*z)")
            else:
                bits.append(f"{t.coeff}*phi{t.index}({t.scale}*z)")
        return "PhiExpr(" + " + ".join(bits) + ")"


def _add_coeff(a, b):
    a, b = _as_exact(a), _as_exact(b)
    if isinstance(a, Rational) and isinstance(b, Rational):
        return Fraction(a) + Fraction(b)
    return complex(a) + complex(b) if (isinstance(a, complex) or isinstance(b, complex)) else a + b


def phi(index: int, coeff: Scalar = 1, scale: Scalar = 1) -> PhiExpr:
    """coeff * phi_index(scale * z) as a one-term expression."""
    return PhiExpr([PhiTerm(coeff, index, scale)])


def exp_term(coeff: Scalar = 1, scale: Scalar = 1) -> PhiExpr:
    """coeff * exp(scale * z) as a one-term expression."""
    return PhiExpr([PhiTerm(coeff, 0, scale)])


def const_term(value: Scalar) -> PhiExpr:
    """A plain constant as a one-term expression."""
    return PhiExpr([PhiTerm(value, 0, 0)])


def psi(index: int, node: Scalar) -> PhiExpr:
    """psi_{index,node} = node^index * phi_index(node * z), the stage-scaled phi."""
    node = _as_exact(node)
    if node == 0:
        return PhiExpr()
    return phi(index, node**index, node)


# ---------------------------------------------------------------------------
# cached evaluation over operator diagonals

# Byte budget of each array cache; the least recently used arrays go
# first.  It holds about 240 float64 arrays of a 64^3 real problem (half
# layout) but only 8 of a complex 128^3 one, so production-size sweeps
# recompute instead of exhausting memory.
_CACHE_BYTES = 256 << 20


class ArrayCache:
    """A thread-safe least-recently-used map of read-only arrays, bounded
    in bytes: put evicts the least recently used entries until the array
    fits, and returns an array larger than the whole budget without
    keeping it.  nbytes is the size of the arrays held."""

    def __init__(self):
        self.budget = _CACHE_BYTES
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def items(self) -> list:
        with self._lock:
            return list(self._items.items())

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self.nbytes = 0

    def get(self, key):
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                return self._items[key]
        return None

    def put(self, key, value: np.ndarray) -> np.ndarray:
        value.setflags(write=False)
        if value.nbytes > self.budget:
            return value
        with self._lock:
            old = self._items.pop(key, None)
            if old is not None:
                self.nbytes -= old.nbytes
            while self._items and self.nbytes + value.nbytes > self.budget:
                self.nbytes -= self._items.popitem(last=False)[1].nbytes
            self._items[key] = value
            self.nbytes += value.nbytes
        return value


_EVAL_CACHE = ArrayCache()


def clear_eval_cache() -> None:
    _EVAL_CACHE.clear()


def _expr_key(expr: PhiExpr, diag: KeyedDiagonal) -> tuple:
    return ("expr", expr.fingerprint(), diag.digest)


def eval_phi_expr(expr: PhiExpr, diag) -> np.ndarray:
    """eval_phi_exprs on one expression: a read-only array shaped like
    diag."""
    return eval_phi_exprs([expr], diag)[0]


def eval_phi_exprs(exprs: Sequence[PhiExpr], diag) -> list:
    """Evaluate PhiExprs entrywise over an operator diagonal, in one walk.

    diag is an array-like, keyed on entry, or a KeyedDiagonal, which
    a caller evaluating over one diagonal more than once (as integrate
    does for a scheme and its starter) builds once.  Returns one
    read-only array per expression, shaped like diag: float64 when every
    entry of diag and every term's coefficient is real, complex128
    otherwise.

    Expressions already cached on (expression, diagonal digest) come
    from the cache.  The rest are worked out on the diagonal's distinct
    entries only: all of their phi terms (index >= 1) that share an
    argument scale come from one _rows pass at scale * distinct, whose
    rows live for this call only, and exponential terms exp(scale * z)
    from np.exp.  Each expression adds its terms in term order at
    distinct length, and its sum is scattered to every entry once and
    cached.  Each entry sees the operations of a plain entrywise
    evaluation, so the bits are those of one.  The cache keeps at most
    _CACHE_BYTES.
    """
    for expr in exprs:
        if not isinstance(expr, PhiExpr):
            raise TypeError(f"expected PhiExpr, got {type(expr).__name__}")
    if not isinstance(diag, KeyedDiagonal):
        diag = KeyedDiagonal(diag)
    keys = [_expr_key(expr, diag) for expr in exprs]
    found = {key: _EVAL_CACHE.get(key) for key in keys}
    todo = {key: expr for key, expr in zip(keys, exprs) if found[key] is None}
    if todo:
        scales: dict = {}
        for expr in todo.values():
            for t in expr.terms:
                if t.index:
                    scales.setdefault(float(t.scale), set()).add(t.index)
        terms: dict = {}
        for scale, indices in scales.items():
            rows = sorted(indices)
            table = _rows(partial(_phi_rows, rows), len(rows), diag, scale)
            terms.update(((index, scale), values) for index, values in zip(rows, table))
        for key, expr in todo.items():
            found[key] = _EVAL_CACHE.put(key, diag.scatter(_sum_terms(expr, diag, terms)))
    return [found[key] for key in keys]


def _sum_terms(expr: PhiExpr, diag: KeyedDiagonal, terms: dict) -> np.ndarray:
    """expr at the distinct entries of diag, its terms added in order;
    terms maps (index, scale) to each phi term's values there."""
    real = diag.real and all(complex(t.coeff).imag == 0 for t in expr.terms)
    distinct = diag.distinct
    out = np.zeros(distinct.shape, dtype=np.float64 if real else np.complex128)
    for t in expr.terms:
        coeff = complex(t.coeff).real if real else complex(t.coeff)
        if t.index:
            out += coeff * terms[t.index, float(t.scale)]
        elif t.scale == 0:
            out += coeff
        else:
            # the complex np.exp even on a real diagonal: its real part and
            # the float64 np.exp differ in the last bit on some entries
            vals = np.exp(float(t.scale) * distinct)
            out += coeff * (vals.real if real else vals)
    return out


def gamma_tables(q: int, ks: Sequence[int], diag: KeyedDiagonal) -> list:
    """gamma_0..gamma_{q-1}(k, .) over a keyed diagonal for each k in
    ks, each stacked on a leading axis: gamma_values(range(q), k,
    diag.values), evaluated on the diagonal's distinct entries and
    scattered once; read only, cached on (q, k, diagonal digest) in the
    phi cache and evicted with the other arrays under its byte budget.

    The tables not cached come from one kernel pass over all their k
    (_gamma_rows), on slices narrowed by their number, so the pass holds
    the working memory of one k."""
    keys = [("gamma", q, k, diag.digest) for k in ks]
    tables = [_EVAL_CACHE.get(key) for key in keys]
    todo = [i for i, table in enumerate(tables) if table is None]
    if todo:
        made = _tables(partial(_gamma_rows, range(q), [ks[i] for i in todo]), q, len(todo), diag)
        for i, rows in zip(todo, made):
            tables[i] = _EVAL_CACHE.put(keys[i], diag.scatter(rows))
    return tables

