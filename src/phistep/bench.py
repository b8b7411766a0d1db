"""Benchmark harness: accuracy/work sweeps over schemes and step sizes.

A sweep integrates one discretized problem with several schemes over a
descending ladder of step sizes, measures each run's relative L2 error
against a cached high-order reference solution, times the stepping loop,
and exports the records as CSV, a two-panel log-log SVG, and a JSON
manifest echo.  Error measurement runs in parallel across sweep points;
timing repetitions run sequentially so no co-scheduled work pollutes
them.  A numerically unstable point is recorded with ``stable=False``
and never aborts the sweep — only a failed reference solve does.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NoDataError, UnstableError
from .integrator import _loglog_slope, integrate, require_steps, snap_step
from .phifun import ArrayCache, digest
from .problems import Problem, default_grid, discretize, get_problem
from .spectral import Grid, to_values
from .svgplot import Panel, two_panel_svg
from .tableau import get_scheme

__all__ = [
    "CSV_HEADER",
    "FIELD_FORMAT_VERSION",
    "FLOOR_FACTOR",
    "REFERENCE_SCHEME",
    "SweepPlan",
    "SweepRecord",
    "clear_reference_cache",
    "estimate_order",
    "export",
    "geometric_ladder",
    "load_field",
    "make_plan",
    "plan_from_manifest",
    "plan_to_manifest",
    "read_records",
    "reference_solution",
    "rel_l2_error",
    "run_sweep",
    "save_field",
]

#: Scheme used for reference solves: the highest-order method in the catalog.
REFERENCE_SCHEME = "pecec736"

#: Points with error <= FLOOR_FACTOR * (smallest error) sit on the error
#: floor of the reference solution and are excluded from order fits.
FLOOR_FACTOR = 100.0

CSV_HEADER = "scheme,h,h_over_T,error,seconds,stable,starter_converged"

_DEFAULT_SCHEMES = ("etdrk4", "lawson4", "abnorsett4", "pecec534")


# ---------------------------------------------------------------------------
# records and plans


@dataclass(frozen=True)
class SweepRecord:
    """One (scheme, step size) sweep point.

    ``error`` and ``seconds`` are present exactly when the run was
    stable; an unstable point keeps its place in the ladder with both
    set to None.  ``h`` is the snapped step actually used (T divided by
    a whole number of steps).
    """

    scheme: str
    h: float
    h_over_T: float
    error: Optional[float]
    seconds: Optional[float]
    stable: bool
    starter_converged: bool

    def __post_init__(self) -> None:
        if self.stable != (self.error is not None):
            raise ValueError("error must be present exactly for stable records")
        if self.stable != (self.seconds is not None):
            raise ValueError("seconds must be present exactly for stable records")


def geometric_ladder(h_max: float, h_min: float, count: int) -> Tuple[float, ...]:
    """A descending geometric ladder of ``count`` step sizes from h_max to h_min."""
    if count < 1:
        raise ValueError(f"ladder needs at least one rung, got {count}")
    if not 0 < h_min <= h_max:
        raise ValueError(f"need 0 < h_min <= h_max, got {h_min}, {h_max}")
    if count == 1:
        if h_min != h_max:
            raise ValueError("a one-rung ladder needs h_min == h_max")
        return (h_max,)
    ratio = h_min / h_max
    return tuple(h_max * ratio ** (k / (count - 1)) for k in range(count))


@dataclass(frozen=True)
class SweepPlan:
    """Everything a sweep needs: problem, grid, schemes, ladder, horizon.

    The ladder must be strictly descending and positive; scheme names
    are validated against the catalog on construction.
    """

    problem: Problem
    grid: Grid
    schemes: Tuple[str, ...]
    ladder: Tuple[float, ...]
    T: float
    out_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(str(s).lower() for s in self.schemes))
        object.__setattr__(self, "ladder", tuple(float(h) for h in self.ladder))
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))
        if not self.schemes:
            raise ValueError("a sweep needs at least one scheme")
        for name in self.schemes:
            get_scheme(name)  # raises KeyError naming an unknown scheme
        if not self.ladder:
            raise ValueError("a sweep needs at least one step size")
        if self.ladder[-1] <= 0:
            raise ValueError(f"step sizes must be positive, got {self.ladder[-1]}")
        if any(a <= b for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError(f"ladder must be strictly descending, got {self.ladder}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T}")


def make_plan(
    problem_name: str,
    schemes: Optional[Sequence[str]] = None,
    *,
    paper_scale: bool = False,
    size: Optional[int] = None,
    T: Optional[float] = None,
    ladder: Optional[Sequence[float]] = None,
    count: int = 7,
    out_dir: Optional[Path] = None,
) -> SweepPlan:
    """Build a SweepPlan from a problem's registry defaults.

    The default ladder is h = T/2^k for k = 4 .. 3 + count, matching the
    resolution range where the catalog schemes separate; at desk scale
    the horizon is the problem's shortened one.
    """
    problem = get_problem(problem_name)
    grid = default_grid(problem, paper_scale=paper_scale, size=size)
    horizon = T if T is not None else (problem.T if paper_scale else problem.desk_T)
    if ladder is None:
        rungs = tuple(horizon * 2.0 ** (-k) for k in range(4, 4 + count))
    else:
        rungs = tuple(ladder)
    return SweepPlan(
        problem=problem,
        grid=grid,
        schemes=_DEFAULT_SCHEMES if schemes is None else tuple(schemes),
        ladder=rungs,
        T=horizon,
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# reference solutions and the error metric

_REFERENCE_CACHE = ArrayCache()


def clear_reference_cache() -> None:
    """Drop all cached reference solutions (mainly for tests)."""
    _REFERENCE_CACHE.clear()


def _system_key(system) -> tuple:
    """A reference's key: the system's name, grid, diagonal, initial data
    and nonlinearity (its op's func and outer symbol, else its own func,
    else its type).  A function with hashable closure values and defaults
    counts by those, its module and its code, so a problem discretized
    twice (a new lambda each time) keeps one key; any other func counts by
    identity, and the key holds it, so that its id is not reused."""
    grid = getattr(system, "grid", None)
    op = getattr(system, "op", None)
    func = getattr(op, "func", getattr(system, "func", type(system)))
    try:  # hash(values) raises TypeError if a value is unhashable
        values = (*(cell.cell_contents for cell in func.__closure__ or ()),
                  *(func.__defaults__ or ()), *(func.__kwdefaults__ or {}).values())
        func = (func.__module__, func.__code__, values, hash(values))
    except (AttributeError, TypeError, ValueError):
        pass
    arrays = (system.lam, system.u0, getattr(op, "outer", None))
    return (getattr(system, "name", type(system).__name__),
            None if grid is None else (grid.sizes, grid.domain),
            digest(*(np.asarray(a) for a in arrays if a is not None)), func)


def reference_solution(system, T: float, h_min: float) -> np.ndarray:
    """Final coefficients of a reference solve at half the smallest sweep step.

    Uses the highest-order catalog scheme at h_min/2 and caches the
    result per (system, T, h_min), the system keyed by its name, grid,
    diagonal, initial data and nonlinearity: a second call with the same key
    returns the identical (read-only) array without re-solving.  The
    cache is the byte-bounded LRU of the phi cache, with its own budget of
    the same size, so the least recently used references are dropped
    first.  An unstable reference raises UnstableError — the caller's
    sweep cannot proceed without a trusted baseline.
    """
    if not h_min > 0:
        raise ValueError(f"h_min must be positive, got {h_min}")
    key = (_system_key(system), float(T), float(h_min))
    cached = _REFERENCE_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        result = integrate(system, REFERENCE_SCHEME, h_min / 2.0, T)
    except UnstableError as exc:
        raise UnstableError(
            f"reference solve ({REFERENCE_SCHEME} at h={h_min / 2.0:g}) for "
            f"{getattr(system, 'name', 'system')} is unstable at t={exc.time}: "
            "the sweep has no trusted baseline",
            time=exc.time,
            step=exc.step,
        ) from exc
    return _REFERENCE_CACHE.put(key, np.array(result.u, copy=True))


def rel_l2_error(u: np.ndarray, reference: np.ndarray) -> float:
    """Relative discrete L2 distance between two fields of equal shape.

    Multi-component fields are concatenated (all components enter one
    norm).  A zero-norm reference leaves the relative error undefined
    and raises NoDataError.
    """
    u = np.asarray(u)
    reference = np.asarray(reference)
    if u.shape != reference.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {reference.shape}")
    denom = float(np.linalg.norm(reference.ravel()))
    if denom == 0.0:
        raise NoDataError("reference field has zero norm; relative error is undefined")
    return float(np.linalg.norm((u - reference).ravel()) / denom)


# ---------------------------------------------------------------------------
# running sweeps


def run_sweep(
    plan: SweepPlan,
    *,
    jobs: Optional[int] = None,
    repetitions: int = 3,
) -> List[SweepRecord]:
    """Run the full sweep and return records in plan order (scheme-major).

    Phase one solves every (scheme, h) point — in parallel when jobs
    permits — and measures errors against the shared reference solution.
    Phase two re-runs each stable point ``repetitions`` times
    sequentially and records the minimum stepping-loop time.  Unstable
    points are recorded with stable=False and otherwise skipped.
    """
    if repetitions < 1:
        raise ValueError(f"need at least one timing repetition, got {repetitions}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    for name in plan.schemes:
        require_steps(get_scheme(name).tableau(), plan.ladder[0], plan.T)
    system = discretize(plan.problem, plan.grid)
    reference = reference_solution(system, plan.T, plan.ladder[-1])
    ref_values = to_values(reference, system.grid)

    points = [(scheme, h) for scheme in plan.schemes for h in plan.ladder]

    def solve(point):
        scheme, h = point
        try:
            result = integrate(system, scheme, h, plan.T)
        except UnstableError:
            h_snap = snap_step(h, plan.T)[1]
            return SweepRecord(
                scheme=scheme, h=h_snap, h_over_T=h_snap / plan.T,
                error=None, seconds=None, stable=False, starter_converged=True,
            )
        error = rel_l2_error(to_values(result.u, system.grid), ref_values)
        stable = math.isfinite(error)
        return SweepRecord(
            scheme=scheme, h=result.h, h_over_T=result.h / plan.T,
            error=error if stable else None,
            seconds=result.seconds if stable else None, stable=stable,
            starter_converged=result.starter_converged,
        )

    if jobs == 1 or len(points) == 1:
        records = [solve(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(solve, points))

    # Exclusive timing repetitions: one run at a time, keep the minimum.
    timed: List[SweepRecord] = []
    for record in records:
        if not record.stable:
            timed.append(record)
            continue
        best = min(
            integrate(system, record.scheme, record.h, plan.T).seconds
            for _ in range(repetitions)
        )
        timed.append(replace(record, seconds=best))
    return timed


# ---------------------------------------------------------------------------
# order estimation


def estimate_order(records: Sequence[SweepRecord]) -> float:
    """Least-squares convergence order of one scheme's sweep records.

    Fits the slope of log(error) against log(h) over the stable points
    sitting above the error floor (error > FLOOR_FACTOR times the
    smallest stable error, which screens out reference-limited points).
    Raises NoDataError when fewer than three points qualify.
    """
    names = {r.scheme for r in records}
    if len(names) > 1:
        raise ValueError(f"records mix schemes {sorted(names)}; estimate one at a time")
    stable = [r for r in records if r.stable and r.error is not None and r.error > 0]
    if not stable:
        raise NoDataError("no stable points with positive error")
    floor = FLOOR_FACTOR * min(r.error for r in stable)
    pts = [(r.h, r.error) for r in stable if r.error > floor]
    if len(pts) < 3:
        raise NoDataError(
            f"only {len(pts)} stable point(s) above the error floor; need at least 3"
        )
    return _loglog_slope(pts)


# ---------------------------------------------------------------------------
# export and import


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_optional_float(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def export(
    records: Sequence[SweepRecord],
    out_dir,
    *,
    basename: str = "sweep",
    title: str = "",
    manifest: Optional[dict] = None,
) -> Dict[str, Path]:
    """Write CSV, two-panel SVG, and JSON manifest files for a sweep.

    The CSV holds one row per record with floats in shortest
    round-trip form (empty fields for an unstable point's error and
    seconds).  The SVG's left panel plots error against h/T and its
    right panel error against stepping seconds, one curve per scheme
    with line gaps at unstable points.  The manifest echo (pretty JSON)
    records whatever dictionary the caller passes, so a run can be
    reproduced from its output directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / f"{basename}.csv",
        "svg": out / f"{basename}.svg",
        "manifest": out / f"{basename}.json",
    }

    with paths["csv"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow([
                r.scheme,
                _format_field(r.h),
                _format_field(r.h_over_T),
                _format_field(r.error),
                _format_field(r.seconds),
                _format_field(r.stable),
                _format_field(r.starter_converged),
            ])

    by_scheme: Dict[str, List[SweepRecord]] = {}
    for r in records:
        by_scheme.setdefault(r.scheme, []).append(r)
    accuracy = {
        scheme: [(r.h_over_T, r.error) if r.stable else None for r in recs]
        for scheme, recs in by_scheme.items()
    }
    work = {
        scheme: [(r.seconds, r.error) if r.stable else None for r in recs]
        for scheme, recs in by_scheme.items()
    }
    left = Panel(title=f"{title} accuracy".strip(), xlabel="h / T",
                 ylabel="relative L2 error", curves=accuracy)
    right = Panel(title=f"{title} work".strip(), xlabel="stepping seconds",
                  ylabel="relative L2 error", curves=work)
    two_panel_svg(left, right, paths["svg"])

    payload = dict(manifest) if manifest is not None else {}
    payload.setdefault("records_csv", paths["csv"].name)
    paths["manifest"].write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths


def read_records(csv_path) -> List[SweepRecord]:
    """Parse a sweep CSV written by ``export`` back into records."""
    path = Path(csv_path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty; expected header {CSV_HEADER!r}") from None
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{path} has header {header}; expected {CSV_HEADER!r}")
        records = []
        for row in reader:
            if len(row) != 7:
                raise ValueError(f"{path}: expected 7 fields, got {row}")
            records.append(SweepRecord(
                scheme=row[0],
                h=float(row[1]),
                h_over_T=float(row[2]),
                error=_parse_optional_float(row[3]),
                seconds=_parse_optional_float(row[4]),
                stable=_parse_bool(row[5]),
                starter_converged=_parse_bool(row[6]),
            ))
    return records


# ---------------------------------------------------------------------------
# field snapshots

#: Bump when the snapshot layout changes; readers refuse unknown versions.
FIELD_FORMAT_VERSION = 1


# values formatted and written per chunk by save_field, and lines parsed
# per chunk by load_field, so the memory of either beyond the field is a
# fixed multiple of the chunk whatever the field's size
_FIELD_CHUNK = 1 << 14


def save_field(path, values: np.ndarray, grid: Grid, time: float, *, problem: str = "") -> Path:
    """Dump one field (grid values) as text with a version-tagged header.

    Header lines start with ``#`` and record the format version, grid
    sizes and intervals, simulation time, component count, and whether
    entries are real or complex; the flattened values follow one per
    line in shortest round-trip decimal form (complex as two columns).
    The values are streamed to the file _FIELD_CHUNK at a time.
    """
    values = np.asarray(values)
    if values.shape[-grid.dims:] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not end in {grid.shape}")
    if values.ndim == grid.dims:
        values = values[np.newaxis]
    if values.ndim != grid.dims + 1:
        raise ValueError(f"expected (components, *grid) layout, got {values.shape}")
    is_complex = np.iscomplexobj(values)
    header = [
        f"# phistep-field {FIELD_FORMAT_VERSION}",
        f"# problem {problem}",
        f"# sizes {' '.join(str(n) for n in grid.sizes)}",
        "# domain " + " ".join(repr(float(e)) for a_b in grid.domain for e in a_b),
        f"# time {float(time)!r}",
        f"# components {values.shape[0]}",
        f"# kind {'complex' if is_complex else 'real'}",
    ]
    out = Path(path)
    with out.open("w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, values.size, _FIELD_CHUNK):
            # .flat slices copy one chunk in C order, whatever the layout
            chunk = values.flat[start : start + _FIELD_CHUNK]
            if is_complex:
                chunk = chunk.astype(np.complex128)
                lines = map("{!r} {!r}".format, chunk.real.tolist(), chunk.imag.tolist())
                fh.write("\n".join(lines) + "\n")
            else:
                # the repr of a list of floats joins their reprs with ", "
                text = repr(chunk.astype(np.float64).tolist())[1:-1]
                fh.write(text.replace(", ", "\n") + "\n")
    return out


def load_field(path):
    """Read a field written by save_field: (values, grid, time, problem).

    Values come back with an explicit leading component axis.  The body
    is parsed _FIELD_CHUNK lines at a time (np.loadtxt) into one array
    allocated from the header, so the memory beyond that array is a
    fixed multiple of one chunk's text; blank lines are skipped.  Raises
    ValueError on unknown format versions or malformed headers, and one
    naming the file and the line number on a malformed value line or a
    value count other than the header's.
    """
    with Path(path).open(encoding="utf-8") as fh:
        line = fh.readline()
        if not line.startswith("# phistep-field "):
            raise ValueError(f"{path} is not a phistep field dump")
        version = line.split()[-1]
        if version != str(FIELD_FORMAT_VERSION):
            raise ValueError(f"{path} has format version {version!r}; "
                             f"this reader handles {FIELD_FORMAT_VERSION}")
        header = {}
        lineno = 1
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            header[key] = value
            line, lineno = fh.readline(), lineno + 1
        try:
            sizes = tuple(int(n) for n in header["sizes"].split())
            flat_domain = [float(e) for e in header["domain"].split()]
            domain = tuple((flat_domain[2 * i], flat_domain[2 * i + 1]) for i in range(len(sizes)))
            time = float(header["time"])
            components = int(header["components"])
            kind = header["kind"]
        except (KeyError, ValueError, IndexError) as exc:
            raise ValueError(f"{path} has a malformed header: {exc}") from exc
        grid = Grid(sizes, domain)
        if kind not in ("real", "complex"):
            raise ValueError(f"{path} has unknown kind {kind!r}")
        data = np.empty(components * grid.npoints,
                        dtype=np.complex128 if kind == "complex" else np.float64)
        # line is the first body line, numbered lineno ("" at the end of the file)
        _read_values(path, itertools.chain([line] if line else [], fh), lineno, data)
    return data.reshape((components, *sizes)), grid, time, header.get("problem", "")


def _read_values(path, lines, lineno: int, out: np.ndarray) -> None:
    """Parse value lines, the first numbered lineno, into the 1-D array
    out: one number per line, or a real and an imaginary part for a
    complex out."""
    columns = 2 if out.dtype.kind == "c" else 1
    filled = 0
    while chunk := list(itertools.islice(lines, _FIELD_CHUNK)):
        if not all(line.isspace() for line in chunk):  # loadtxt warns on no data
            try:
                block = np.loadtxt(chunk, dtype=np.float64, comments=None, ndmin=2)
            except ValueError:
                block = None
            if block is None or block.shape[1] != columns or filled + len(block) > out.size:
                raise _value_error(path, chunk, lineno, columns, out.size - filled)
            if columns == 1:
                out[filled : filled + len(block)] = block[:, 0]
            else:
                out.real[filled : filled + len(block)] = block[:, 0]
                out.imag[filled : filled + len(block)] = block[:, 1]
            filled += len(block)
        lineno += len(chunk)
    if filled != out.size:
        raise ValueError(f"{path}, line {lineno - 1}: the file ends after {filled} values; "
                         f"the header promises {out.size}")


def _value_error(path, chunk: list, lineno: int, columns: int, room: int) -> ValueError:
    """The error for the first bad line of a chunk that failed to parse,
    each line parsed alone as the chunk was: a line that is not columns
    numbers, or one value past room."""
    for number, line in enumerate(chunk, start=lineno):
        if line.isspace():
            continue
        try:
            width = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=2).shape[1]
        except ValueError:
            width = None
        if width != columns:
            return ValueError(f"{path}, line {number}: expected {columns} number(s), "
                              f"got {line.strip()!r}")
        if room == 0:
            return ValueError(f"{path}, line {number}: more values than the header "
                              "promises")
        room -= 1
    return ValueError(f"{path}, lines {lineno}-{lineno + len(chunk) - 1}: unreadable values")


# ---------------------------------------------------------------------------
# manifests


def plan_to_manifest(plan: SweepPlan, **extra) -> dict:
    """A JSON-serializable echo of a plan (plus any extra run flags)."""
    manifest = {
        "problem": plan.problem.key,
        "grid": list(plan.grid.sizes),
        "schemes": list(plan.schemes),
        "ladder": list(plan.ladder),
        "T": plan.T,
        "out_dir": None if plan.out_dir is None else str(plan.out_dir),
    }
    manifest.update(extra)
    return manifest


# the keys plan_from_manifest reads, and the keys a bench echo writes
# beside them (export's records_csv, and the run flags jobs and
# repetitions that cmd_bench reads)
_PLAN_KEYS = ("problem", "schemes", "paper_scale", "size", "grid", "T", "ladder", "count",
              "out_dir")
_ECHO_KEYS = ("records_csv", "jobs", "repetitions")


def plan_from_manifest(manifest: dict) -> SweepPlan:
    """Build a SweepPlan from manifest keys (the inverse of plan_to_manifest).

    The keys are make_plan's: problem (required), schemes, paper_scale,
    size, T, ladder, count and out_dir, plus grid, the echo's form of
    size (one equal size per axis).  Each is read by _read_setting, and
    one that is absent or null takes make_plan's default.  Any other key
    but the echo's records_csv, jobs and repetitions is refused by name
    (_check_keys).  grid and size, or ladder and count, may not both be
    given, and paper_scale is refused beside a grid and T, which leave it
    nothing to choose.
    """
    _check_keys(manifest, _PLAN_KEYS + _ECHO_KEYS)
    read = functools.partial(_read_setting, manifest, naming="manifest key {!r}")
    name = read("problem", "name")
    if name is None:
        raise ValueError("a sweep needs a problem name (manifest key 'problem')")
    problem = get_problem(name)
    size, sizes = read("size", "integer"), read("grid", "integers")
    if sizes is not None:
        if len(set(sizes)) != 1 or len(sizes) != problem.dims:
            raise ValueError(f"grid {sizes} does not match a {problem.dims}D uniform grid")
        if size is not None:
            raise ValueError("manifest keys 'grid' and 'size' both give the grid; keep one")
        size = sizes[0]
    ladder, count = read("ladder", "numbers"), read("count", "integer")
    if ladder is not None and count is not None:
        raise ValueError("manifest keys 'ladder' and 'count' both give the ladder; keep one")
    paper_scale, T = read("paper_scale", "bool"), read("T", "number")
    if paper_scale and size is not None and T is not None:
        raise ValueError(f"manifest key 'paper_scale' changes nothing beside "
                         f"{'grid' if sizes is not None else 'size'!r} and 'T', which fix "
                         "the grid and the horizon; drop one of them")
    out_dir = read("out_dir", "name")
    settings = {
        "paper_scale": paper_scale,
        "size": size,
        "T": T,
        "ladder": ladder,
        "count": count,
        "out_dir": None if out_dir is None else Path(out_dir),
    }
    return make_plan(problem.key, read("schemes", "names"),
                     **{key: value for key, value in settings.items() if value is not None})


# ---------------------------------------------------------------------------
# settings

# kind: (what a value of the kind must be, the kind of its items if it is a
# list); "times" may also be one comma-separated string of numbers
_KINDS = {
    "number": ("a number", None),
    "integer": ("an integer", None),
    "bool": ("true or false", None),
    "name": ("a string", None),
    "numbers": ("a list of numbers", "number"),
    "integers": ("a list of integers", "integer"),
    "names": ("a list of strings", "name"),
    "times": ("a list of times or a comma-separated string", "number"),
}


def _read_setting(settings: dict, key: str, kind: str, default=None, *, naming: str = "{}"):
    """settings[key] read as a value of kind (a key of _KINDS), or default
    when the key is absent or null.

    This is the one place where the type of a manifest key or a flag is
    checked.  A value of another kind raises ValueError naming the key
    (formatted by naming) and the value; a list kind tells a value that
    is not a list that it "must be a list"."""
    value = settings.get(key)
    if value is None:
        return default
    what, item = _KINDS[kind]
    try:
        if item is None:
            return _read_item(value, kind)
        items = value
        if kind == "times" and isinstance(value, str):
            items = [token for token in value.split(",") if token.strip()]
        elif not isinstance(value, (list, tuple)):
            what = what if kind == "times" else "a list"
            raise TypeError
        return [_read_item(one, item) for one in items]
    except (TypeError, ValueError):
        raise ValueError(f"{naming.format(key)} must be {what}, got {value!r}") from None


def _check_keys(settings: dict, known) -> None:
    """Raise ValueError naming the first key of settings that is not in
    known, and the known keys: a misspelt key, or one that is no longer
    read, would otherwise leave its default in place without a word."""
    for key in settings:
        if key not in known:
            raise ValueError(f"unknown manifest key {key!r} (misspelt, or no longer read); "
                             f"the keys are {', '.join(sorted(known))}")


def _read_item(value, kind: str):
    """One value of a kind that is not a list; TypeError or ValueError
    for a value of another kind.  A JSON boolean is no number (float(True)
    is 1.0), bool("no") would be True, and an integer may be written as a
    string: 64 and "64" pass, 64.5, True and "abc" do not."""
    if kind == "integer":
        return int(str(value))
    if kind == "number" and not isinstance(value, bool):
        return float(value)
    if kind == "bool" and isinstance(value, bool) or kind == "name" and isinstance(value, str):
        return value
    raise TypeError
