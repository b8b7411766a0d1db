"""Benchmark-harness tests: reference caching, the relative L2 metric,
sweep execution with instability recording, order estimation with its
error-floor rule, and CSV/SVG/JSON export round-trips."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phistep import bench
from phistep.bench import (
    CSV_HEADER,
    SweepPlan,
    SweepRecord,
    clear_reference_cache,
    estimate_order,
    export,
    geometric_ladder,
    make_plan,
    plan_from_manifest,
    plan_to_manifest,
    read_records,
    reference_solution,
    rel_l2_error,
    run_sweep,
)
from phistep.errors import NoDataError, UnstableError
from phistep.integrator import ScalarProbe, _ProbeSystem, _loglog_slope
from phistep.problems import default_grid, discretize, get_problem
from phistep.spectral import Grid, NonlinearOp


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_reference_cache()
    yield
    clear_reference_cache()


def _probe_system(name="bench-probe"):
    probe = ScalarProbe()
    return probe, _ProbeSystem(
        lam=np.array([probe.lam], dtype=complex),
        u0=np.array([probe.u0], dtype=complex),
        func=probe.func,
        name=name,
    )


# ---------------------------------------------------------------------------
# reference solutions


def test_reference_matches_scalar_probe_oracle():
    probe, system = _probe_system()
    ref = reference_solution(system, probe.T, 1e-2)
    want = complex(probe.solution(probe.T))
    assert abs(complex(ref[0]) - want) / abs(want) <= 1e-10


def test_reference_steps_are_twice_t_over_hmin(monkeypatch):
    import phistep.bench as bench

    calls = {}
    real_integrate = bench.integrate

    def spy(system, scheme, h, T, **kw):
        result = real_integrate(system, scheme, h, T, **kw)
        calls["scheme"] = scheme
        calls["steps"] = result.steps
        return result

    monkeypatch.setattr(bench, "integrate", spy)
    _, system = _probe_system()
    reference_solution(system, 1.0, 1e-3)
    assert calls["scheme"] == "pecec736"
    assert calls["steps"] == 2000  # 2 * T / h_min


@pytest.mark.parametrize("h_min", [0.0, -1e-3])
def test_reference_rejects_a_step_that_is_not_positive(h_min):
    _, system = _probe_system()
    with pytest.raises(ValueError, match=f"h_min must be positive, got {h_min}"):
        reference_solution(system, 1.0, h_min)


def test_reference_cache_returns_identical_array():
    probe, system = _probe_system()
    first = reference_solution(system, probe.T, 1e-2)
    second = reference_solution(system, probe.T, 1e-2)
    assert second is first
    assert not first.flags.writeable


def test_reference_cache_is_bounded_in_bytes(monkeypatch):
    cache = bench._REFERENCE_CACHE
    monkeypatch.setattr(cache, "budget", 40)
    probe, system = _probe_system()
    # each reference is one complex128 entry: 16 bytes, so two fit
    refs = [reference_solution(system, probe.T, h) for h in (0.1, 0.05, 0.025)]
    kept = [v for _, v in cache.items()]
    assert sum(v.nbytes for v in kept) == cache.nbytes == 32
    # the least recently used reference went first
    assert len(kept) == 2 and kept[0] is refs[1] and kept[1] is refs[2]
    assert reference_solution(system, probe.T, 0.05) is refs[1]
    # a reference larger than the whole budget is returned but not kept
    monkeypatch.setattr(cache, "budget", 8)
    big = reference_solution(system, probe.T, 0.2)
    assert big.nbytes > 8 and not big.flags.writeable
    assert not any(v is big for _, v in cache.items())


def test_reference_cache_distinguishes_systems_with_same_name():
    _, a = _probe_system(name="twin")
    b = _ProbeSystem(
        lam=np.array([-2.0 + 0j]),
        u0=np.array([0.25 + 0j]),
        func=lambda u: u * u,
        name="twin",
    )
    ra = reference_solution(a, 1.0, 1e-2)
    rb = reference_solution(b, 1.0, 1e-2)
    assert abs(complex(ra[0]) - complex(rb[0])) > 1e-3


def test_reference_cache_distinguishes_systems_with_another_nonlinearity():
    # the same name, grid, diagonal and initial data, but N(u) halved
    problem = get_problem("ac")
    plain = discretize(problem, default_grid(problem))
    halved = dataclasses.replace(plain, op=NonlinearOp(lambda u: 0.5 * (u * u * u)))
    ra = reference_solution(plain, 1.0, 0.05)
    rb = reference_solution(halved, 1.0, 0.05)
    assert rb is not ra
    assert np.max(np.abs(ra - rb)) > 1e-2


def test_reference_cache_is_shared_by_two_discretizations_of_a_problem():
    problem = get_problem("ac")
    first, second = (discretize(problem, default_grid(problem)) for _ in range(2))
    assert first.op is not second.op and first.op.func is second.op.func
    assert reference_solution(second, 1.0, 0.05) is reference_solution(first, 1.0, 0.05)


def _quadratic_system(alpha):
    # a system with lam, u0 and nonlinear alone: u' = -u + alpha u^2
    return SimpleNamespace(lam=np.array([-1.0 + 0j]), u0=np.array([0.5 + 0j]),
                           nonlinear=lambda c: alpha * c * c)


def test_reference_cache_distinguishes_systems_that_offer_nonlinear_alone():
    # the same lam and u0 and no name, op or func: only N tells them apart
    first = reference_solution(_quadratic_system(1.0), 1.0, 0.05)
    second = reference_solution(_quadratic_system(-3.0), 1.0, 0.05)
    clear_reference_cache()
    alone = reference_solution(_quadratic_system(-3.0), 1.0, 0.05)
    assert second.tobytes() == alone.tobytes() != first.tobytes()


def test_unstable_reference_raises():
    system = _ProbeSystem(
        lam=np.array([0j]),
        u0=np.array([2.0 + 0j]),
        func=lambda u: u * u,  # u' = u^2 from u(0)=2 blows up at t = 1/2
        name="finite-time-blowup",
    )
    with np.errstate(all="ignore"):
        with pytest.raises(UnstableError, match="reference"):
            reference_solution(system, 1.0, 1e-2)


# ---------------------------------------------------------------------------
# error metric


def test_rel_l2_error_identical_fields_is_zero():
    u = np.array([1.0 + 2.0j, -0.5, 3.0])
    assert rel_l2_error(u, u) == 0.0


def test_rel_l2_error_doubled_field_is_one():
    ref = np.array([0.3, -1.2, 0.7, 2.0])
    assert rel_l2_error(2.0 * ref, ref) == pytest.approx(1.0, abs=1e-15)


def test_rel_l2_error_matches_manual_norms():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    ref = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    want = np.linalg.norm((u - ref).ravel()) / np.linalg.norm(ref.ravel())
    assert rel_l2_error(u, ref) == pytest.approx(want, rel=1e-15)


def test_rel_l2_error_scaling_invariance():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(32)
    ref = rng.standard_normal(32)
    assert rel_l2_error(2.0 * u, 2.0 * ref) == rel_l2_error(u, ref)


def test_rel_l2_error_zero_reference_raises():
    with pytest.raises(NoDataError):
        rel_l2_error(np.ones(4), np.zeros(4))


def test_rel_l2_error_shape_mismatch_raises():
    with pytest.raises(ValueError):
        rel_l2_error(np.ones(4), np.ones(5))


# ---------------------------------------------------------------------------
# ladders and plans


def test_geometric_ladder_descending_and_endpoints():
    ladder = geometric_ladder(1.0, 1.0 / 64.0, 7)
    assert len(ladder) == 7
    assert ladder[0] == pytest.approx(1.0)
    assert ladder[-1] == pytest.approx(1.0 / 64.0)
    ratios = [a / b for a, b in zip(ladder, ladder[1:])]
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in ratios)
    assert geometric_ladder(0.5, 0.5, 1) == (0.5,)


def test_geometric_ladder_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_ladder(1.0, 2.0, 3)
    with pytest.raises(ValueError):
        geometric_ladder(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        geometric_ladder(1.0, 0.5, 0)
    with pytest.raises(ValueError, match="a one-rung ladder needs h_min == h_max"):
        geometric_ladder(1.0, 0.5, 1)


def _tiny_plan(**overrides):
    kwargs = dict(
        problem=get_problem("ks"),
        grid=default_grid(get_problem("ks")),
        schemes=("etdrk4",),
        ladder=(0.625,),
        T=10.0,
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_plan_rejects_ascending_ladder():
    with pytest.raises(ValueError, match="descending"):
        _tiny_plan(ladder=(0.1, 0.2))


def test_plan_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        _tiny_plan(ladder=(0.1, 0.0))
    with pytest.raises(ValueError, match="a sweep needs at least one step size"):
        _tiny_plan(ladder=())


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_plan_rejects_horizon_that_is_not_positive_and_finite(T):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        _tiny_plan(T=T)


def test_plan_rejects_unknown_scheme_naming_it():
    with pytest.raises(KeyError, match="etdrk9"):
        _tiny_plan(schemes=("etdrk9",))


def test_plan_rejects_empty_schemes():
    with pytest.raises(ValueError):
        _tiny_plan(schemes=())


def test_make_plan_uses_registry_defaults():
    plan = make_plan("ks", ["etdrk4"])
    problem = get_problem("ks")
    assert plan.T == problem.desk_T
    assert plan.grid.sizes == (problem.desk_size,)
    assert plan.ladder[0] == pytest.approx(plan.T / 16.0)
    assert len(plan.ladder) == 7


def test_make_plan_defaults_only_an_absent_scheme_list():
    assert make_plan("ks").schemes == ("etdrk4", "lawson4", "abnorsett4", "pecec534")
    with pytest.raises(ValueError, match="a sweep needs at least one scheme"):
        make_plan("ks", [])


# ---------------------------------------------------------------------------
# running sweeps


def test_single_point_plan_yields_one_record():
    plan = _tiny_plan()
    records = run_sweep(plan, repetitions=1)
    assert len(records) == 1
    (rec,) = records
    assert rec.scheme == "etdrk4"
    assert rec.stable and rec.starter_converged
    assert rec.error is not None and 0 < rec.error < 1e-2
    assert rec.seconds is not None and rec.seconds > 0
    assert rec.h == pytest.approx(0.625)
    assert rec.h_over_T == pytest.approx(0.0625)


def _plan_with_an_unstable_point():
    # abnorsett5 is unstable on ks at T/2^5, every other point is stable
    T = 30.0
    return _tiny_plan(schemes=("etdrk4", "abnorsett5"), ladder=(T / 2**5, T / 2**8), T=T)


def test_sweep_records_follow_plan_order_and_instability_is_recorded():
    plan = _plan_with_an_unstable_point()
    T = plan.T
    with np.errstate(all="ignore"):
        records = run_sweep(plan, repetitions=1)
    assert [(r.scheme, round(r.h, 6)) for r in records] == [
        ("etdrk4", round(T / 2**5, 6)),
        ("etdrk4", round(T / 2**8, 6)),
        ("abnorsett5", round(T / 2**5, 6)),
        ("abnorsett5", round(T / 2**8, 6)),
    ]
    etdrk4 = records[:2]
    assert all(r.stable for r in etdrk4)
    top, bottom = records[2], records[3]
    assert not top.stable and top.error is None and top.seconds is None
    assert bottom.stable and bottom.error is not None


@pytest.mark.parametrize("jobs, repetitions, stable_runs", [(1, 1, 1), (1, 3, 3), (2, 1, 2)])
def test_sweep_integration_count(monkeypatch, jobs, repetitions, stable_runs):
    # a sequential error run is the first timing run; a pooled one is not
    plan = _plan_with_an_unstable_point()
    runs = []
    real_integrate = bench.integrate

    def counting(system, scheme, h, T, **kw):
        run = {"point": (scheme, round(T / h)), "seconds": None}
        runs.append(run)
        result = real_integrate(system, scheme, h, T, **kw)
        run["seconds"] = result.seconds
        return result

    monkeypatch.setattr(bench, "integrate", counting)
    with np.errstate(all="ignore"):
        records = run_sweep(plan, jobs=jobs, repetitions=repetitions)
    assert [r.stable for r in records] == [True, True, False, True]
    reference = [run for run in runs if run["point"][0] == bench.REFERENCE_SCHEME]
    assert len(reference) == 1
    for record in records:
        point = [run for run in runs if run["point"] == (record.scheme, round(plan.T / record.h))]
        assert len(point) == (stable_runs if record.stable else 1)
        if record.stable and stable_runs == 1:
            assert record.seconds == point[0]["seconds"]
    assert len(runs) == 1 + sum(stable_runs if r.stable else 1 for r in records)


def test_sweep_errors_match_across_jobs_and_repetitions():
    plan = _plan_with_an_unstable_point()
    with np.errstate(all="ignore"):
        sweeps = [run_sweep(plan, jobs=jobs, repetitions=repetitions)
                  for jobs, repetitions in ((1, 1), (1, 3), (2, 1))]
    # only seconds may differ; every other field must be equal exactly
    outcomes = [[(r.scheme, r.h, r.error, r.stable, r.starter_converged) for r in sweep]
                for sweep in sweeps]
    assert [stable for *_, stable, _ in outcomes[0]] == [True, True, False, True]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("bad, match", [({"jobs": 0}, "jobs"), ({"repetitions": 0}, "repetition")])
def test_sweep_rejects_bad_counts_before_any_solve(monkeypatch, bad, match):
    calls = []
    monkeypatch.setattr(bench, "integrate", lambda *args, **kwargs: calls.append(args))
    plan = make_plan("nls", schemes=("etdrk4",))
    with pytest.raises(ValueError, match=match):
        run_sweep(plan, **bad)
    assert calls == []


def test_sweep_rejects_ladder_too_coarse_for_scheme():
    plan = _tiny_plan(schemes=("pecec736",), ladder=(5.0,), T=10.0)
    with pytest.raises(ValueError, match="pecec736"):
        run_sweep(plan)


def test_record_invariant_error_iff_stable():
    with pytest.raises(ValueError):
        SweepRecord("etdrk4", 0.1, 0.01, None, None, True, True)
    with pytest.raises(ValueError):
        SweepRecord("etdrk4", 0.1, 0.01, 1e-3, 0.5, False, True)


# ---------------------------------------------------------------------------
# order estimation


def _synthetic_records(order=4.0, coeff=0.7, rungs=6, floor=None):
    records = []
    for k in range(rungs):
        h = 2.0 ** (-k)
        err = coeff * h**order
        if floor is not None:
            err = max(err, floor)
        records.append(
            SweepRecord("etdrk4", h, h / 10.0, err, 1e-3 * (k + 1), True, True)
        )
    return records


def test_estimate_order_synthetic_quartic():
    assert estimate_order(_synthetic_records()) == pytest.approx(4.0, abs=1e-6)


def test_estimate_order_excludes_error_floor_points():
    records = _synthetic_records(rungs=7, floor=2e-7)
    # The bottom rungs sit at the artificial floor; the fit must use only
    # the clean power-law region and still see slope 4.
    assert estimate_order(records) == pytest.approx(4.0, abs=1e-6)


def test_estimate_order_needs_three_qualifying_points():
    flat = [
        SweepRecord("etdrk4", 2.0 ** (-k), 0.1, 1e-9 * (1 + 0.01 * k), 1e-3, True, True)
        for k in range(5)
    ]
    with pytest.raises(NoDataError):
        estimate_order(flat)
    unstable = [SweepRecord("etdrk4", 2.0 ** (-k), 0.1, None, None, False, True)
                for k in range(5)]
    with pytest.raises(NoDataError, match="no stable points with positive error"):
        estimate_order(unstable)


def test_estimate_order_and_empirical_order_share_one_fit():
    points = [(0.1, 3e-4), (0.05, 2e-5), (0.025, 1.3e-6), (0.0125, 8e-8)]
    want = np.polyfit(np.log([h for h, _ in points]), np.log([e for _, e in points]), 1)[0]
    assert _loglog_slope(points) == pytest.approx(want, rel=1e-12)
    assert bench._loglog_slope is _loglog_slope
    records = [SweepRecord("etdrk4", h, h, e, 1.0, True, True) for h, e in points]
    records.append(SweepRecord("etdrk4", 0.00625, 0.00625, 1e-12, 1.0, True, True))  # floor
    assert estimate_order(records) == _loglog_slope(points)


def test_estimate_order_rejects_mixed_schemes():
    records = _synthetic_records()
    records[0] = SweepRecord("lawson4", 1.0, 0.1, 0.7, 1e-3, True, True)
    with pytest.raises(ValueError, match="mix"):
        estimate_order(records)


def test_estimate_order_ignores_unstable_points():
    records = _synthetic_records()
    records.insert(
        0, SweepRecord("etdrk4", 2.0, 0.2, None, None, False, True)
    )
    assert estimate_order(records) == pytest.approx(4.0, abs=1e-6)


def test_estimate_order_etdrk4_on_ks_is_four():
    T = 10.0
    plan = _tiny_plan(
        schemes=("etdrk4",),
        ladder=tuple(T * 2.0**-k for k in range(4, 11)),
        T=T,
    )
    records = run_sweep(plan, repetitions=1)
    assert all(r.stable for r in records)
    assert estimate_order(records) == pytest.approx(4.0, abs=0.3)


# ---------------------------------------------------------------------------
# export and import


def _mixed_records():
    return [
        SweepRecord("etdrk4", 0.5, 0.05, 1.25e-3, 0.011, True, True),
        SweepRecord("etdrk4", 0.25, 0.025, 8.0e-5, 0.022, True, True),
        SweepRecord("etdrk4", 0.125, 0.0125, 5.0e-6, 0.044, True, True),
        SweepRecord("abnorsett4", 0.5, 0.05, None, None, False, True),
        SweepRecord("abnorsett4", 0.25, 0.025, 3.0e-4, 0.007, True, False),
        SweepRecord("abnorsett4", 0.125, 0.0125, 2.0e-5, 0.013, True, True),
    ]


def test_export_empty_records_writes_header_only(tmp_path):
    paths = export([], tmp_path)
    text = paths["csv"].read_text()
    assert text == CSV_HEADER + "\n"
    assert read_records(paths["csv"]) == []


def test_export_row_count_and_header(tmp_path):
    paths = export(_mixed_records(), tmp_path)
    lines = paths["csv"].read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6


def test_export_unstable_rows_have_empty_error_and_seconds(tmp_path):
    paths = export(_mixed_records(), tmp_path)
    lines = paths["csv"].read_text().splitlines()
    unstable = [l for l in lines[1:] if l.endswith("false,true")]
    assert len(unstable) == 1
    fields = unstable[0].split(",")
    assert fields[0] == "abnorsett4"
    assert fields[3] == "" and fields[4] == ""


def test_csv_round_trip_preserves_records_exactly(tmp_path):
    records = _mixed_records()
    paths = export(records, tmp_path)
    assert read_records(paths["csv"]) == records


def test_read_records_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_records(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"is empty; expected header {CSV_HEADER!r}")):
        read_records(empty)


@pytest.mark.parametrize("row, where", [
    ("etdrk4,abc,0.1,,,true,true", "column 2 (h): could not convert string to float: 'abc'"),
    ("etdrk4,0.1,0.01,1e-3,0.1,maybe,true",
     "column 6 (stable): expected 'true' or 'false', got 'maybe'"),
    ("etdrk4,0.1,0.01,1e-3,0.1,true,yes", "column 7 (starter_converged): expected"),
    ("etdrk4,0.1,0.01,x,0.1,true,true", "column 4 (error): could not convert"),
    ("etdrk4,0.1,0.01,1e-3,0.1,true", "column 7 (starter_converged): expected 7 fields, got 6"),
    ("etdrk4,0.1,0.01,1e-3,0.1,true,true,x", "column 8: expected 7 fields, got 8"),
], ids=["h", "stable", "starter_converged", "error", "short", "long"])
def test_read_records_names_the_file_line_and_column_of_a_bad_row(tmp_path, row, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{CSV_HEADER}\netdrk4,0.5,0.05,0.01,0.1,true,true\n{row}\n")
    with pytest.raises(ValueError) as caught:
        read_records(bad)
    assert str(caught.value).startswith(f"{bad}, line 3, {where}"), str(caught.value)


def test_svg_is_well_formed_with_curves_and_gap(tmp_path):
    paths = export(_mixed_records(), tmp_path, title="demo")
    tree = ET.parse(paths["svg"])  # raises on malformed XML
    svg = paths["svg"].read_text()
    assert "demo accuracy" in svg and "demo work" in svg
    assert svg.count("<polyline") >= 2
    assert "etdrk4" in svg and "abnorsett4" in svg


def test_svg_escapes_markup_in_its_title_and_keeps_quotes(tmp_path):
    paths = export(_mixed_records(), tmp_path, title="a <b> & 'c' \"d\"")
    svg = paths["svg"].read_text()
    assert ">a &lt;b&gt; &amp; 'c' \"d\" accuracy</text>" in svg
    titles = [el.text for el in ET.parse(paths["svg"]).iter("{http://www.w3.org/2000/svg}text")]
    assert "a <b> & 'c' \"d\" work" in titles


def test_importing_the_package_loads_no_xml_sax():
    # svgplot escapes through html.escape: xml.sax.saxutils would pull
    # in urllib.request, a large share of the package's import time
    import phistep
    src = os.path.dirname(os.path.dirname(phistep.__file__))
    code = "import sys, phistep; print([m for m in sys.modules if m.startswith('xml.sax')])"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_svg_breaks_line_at_unstable_point(tmp_path):
    records = [
        SweepRecord("etdrk4", 0.5, 0.05, 1e-2, 0.01, True, True),
        SweepRecord("etdrk4", 0.25, 0.025, None, None, False, True),
        SweepRecord("etdrk4", 0.125, 0.0125, 1e-4, 0.04, True, True),
        SweepRecord("etdrk4", 0.0625, 0.00625, 1e-5, 0.08, True, True),
    ]
    paths = export(records, tmp_path)
    svg = paths["svg"].read_text()
    # Four stable markers per panel but the accuracy panel's curve is cut
    # in two by the unstable rung, so only one 2+ point polyline appears
    # there (the single leading point draws no line).
    assert svg.count("<circle") == 6
    assert svg.count("<polyline") == 2


def test_export_writes_manifest_echo(tmp_path):
    manifest = {"problem": "ks", "schemes": ["etdrk4"], "T": 10.0}
    paths = export(_mixed_records(), tmp_path, manifest=manifest)
    loaded = json.loads(paths["manifest"].read_text())
    for key, value in manifest.items():
        assert loaded[key] == value
    assert loaded["records_csv"] == paths["csv"].name


def test_plan_manifest_round_trip():
    plan = make_plan("ks", ["etdrk4", "abnorsett4"])
    rebuilt = plan_from_manifest(plan_to_manifest(plan))
    assert rebuilt == plan


@pytest.mark.parametrize("key, value", [("grid", 64), ("schemes", "etdrk4"), ("ladder", 0.5)])
def test_plan_from_manifest_rejects_a_non_list_naming_the_key(key, value):
    manifest = plan_to_manifest(make_plan("ks", ["etdrk4"], count=3))
    manifest[key] = value
    with pytest.raises(ValueError, match=f"manifest key '{key}' must be a list"):
        plan_from_manifest(manifest)


def test_plan_manifest_round_trip_2d():
    plan = make_plan("gl2", ["etdrk4"], count=3)
    manifest = plan_to_manifest(plan)
    assert manifest["problem"] == "gl2"
    assert manifest["grid"] == [32, 32]
    assert plan_from_manifest(manifest) == plan


@pytest.mark.parametrize("key, value, kind", [
    ("T", True, "a number"),
    ("grid", [32.5], "a list of integers"),
    ("grid", ["32", True], "a list of integers"),
    ("problem", ["nls"], "a string"),
    ("schemes", ["etdrk4", 4], "a list of strings"),
    ("ladder", [0.5, "x"], "a list of numbers"),
    ("paper_scale", "yes", "true or false"),
    ("out_dir", 5, "a string"),
])
def test_plan_from_manifest_names_the_key_and_value_of_a_wrong_type(key, value, kind):
    manifest = plan_to_manifest(make_plan("ks", ["etdrk4"], count=3))
    manifest[key] = value
    with pytest.raises(ValueError) as info:
        plan_from_manifest(manifest)
    assert str(info.value) == f"manifest key {key!r} must be {kind}, got {value!r}"


def test_plan_from_manifest_takes_make_plans_defaults_and_keys():
    assert plan_from_manifest({"problem": "ks"}) == make_plan("ks")
    assert (plan_from_manifest({"problem": "gl2", "schemes": ["lawson4"], "size": "16",
                                "count": 3, "paper_scale": False})
            == make_plan("gl2", ["lawson4"], size=16, count=3))
    assert plan_from_manifest({"problem": "ks", "paper_scale": True, "T": 2}) == make_plan(
        "ks", paper_scale=True, T=2.0)


@pytest.mark.parametrize("extra, cause", [
    ({}, "a sweep needs a problem name (manifest key 'problem')"),
    ({"problem": "ks", "grid": [64], "size": 64}, "'grid' and 'size' both give the grid"),
    ({"problem": "ks", "ladder": [0.5], "count": 3}, "'ladder' and 'count' both give the ladder"),
    ({"problem": "ks", "grid": [64, 64]}, "grid [64, 64] does not match a 1D uniform grid"),
])
def test_plan_from_manifest_rejects_missing_or_doubled_keys(extra, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        plan_from_manifest(extra)


@pytest.mark.parametrize("key", ["shemes", "contour_points"])
def test_plan_from_manifest_names_an_unknown_key(key):
    # "shemes" once ran the four default schemes without a word, and
    # "contour_points" is a key earlier versions read
    with pytest.raises(ValueError) as info:
        plan_from_manifest({"problem": "ks", key: ["lawson4"], "T": 1})
    message = str(info.value)
    assert message.startswith(f"unknown manifest key {key!r} (misspelt, or no longer read); ")
    assert "schemes" in message.partition(";")[2]


def test_plan_from_manifest_accepts_every_key_of_a_bench_echo(tmp_path):
    plan = make_plan("gl2", ["etdrk4"], count=3, out_dir=tmp_path)
    echo = export(_mixed_records(), tmp_path,
                  manifest=plan_to_manifest(plan, jobs=2, repetitions=1))["manifest"]
    manifest = json.loads(echo.read_text())
    assert set(manifest) >= {"records_csv", "jobs", "repetitions", "grid", "out_dir"}
    assert plan_from_manifest(manifest) == plan


@pytest.mark.parametrize("grid, named", [({"grid": [64]}, "'grid'"), ({"size": 64}, "'size'")])
def test_plan_from_manifest_refuses_paper_scale_beside_a_grid_and_T(grid, named):
    # paper_scale only picks the grid and the horizon; with both given it
    # once ran a 64-point, T = 30 desk plan
    manifest = {"problem": "ks", "paper_scale": True, "T": 30.0, "ladder": [1.0], **grid}
    with pytest.raises(ValueError) as info:
        plan_from_manifest(manifest)
    assert str(info.value).startswith(
        f"manifest key 'paper_scale' changes nothing beside {named} and 'T'")
    del manifest["T"]  # a paper-scale horizon beside the given grid
    assert plan_from_manifest(manifest) == make_plan("ks", paper_scale=True, size=64,
                                                     ladder=[1.0])


@pytest.mark.parametrize("kind, value, want", [
    ("number", 2, 2.0), ("number", "0.5", 0.5), ("integer", "64", 64),
    ("integer", np.int64(8), 8), ("bool", False, False), ("name", "ks", "ks"),
    ("numbers", (1, 0.5), [1.0, 0.5]), ("integers", [2, "4"], [2, 4]),
    ("names", [], []), ("times", "0.5, 1,", [0.5, 1.0]), ("times", [2], [2.0]),
])
def test_read_setting_accepts_its_kind(kind, value, want):
    got = bench._read_setting({"k": value}, "k", kind)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("kind, value, what", [
    ("number", True, "a number"), ("number", "abc", "a number"), ("number", [1], "a number"),
    ("integer", 2.5, "an integer"), ("integer", False, "an integer"), ("integer", "2.0", "an integer"),
    ("bool", 1, "true or false"), ("bool", "true", "true or false"),
    ("name", 3, "a string"), ("name", ["ks"], "a string"),
    ("names", "ks", "a list"), ("names", {"ks": 1}, "a list"), ("numbers", 0.5, "a list"),
    ("integers", [1.5], "a list of integers"), ("numbers", [False], "a list of numbers"),
    ("times", 5, "a list of times or a comma-separated string"),
    ("times", "1,x", "a list of times or a comma-separated string"),
])
def test_read_setting_rejects_other_kinds_naming_key_and_value(kind, value, what):
    with pytest.raises(ValueError) as info:
        bench._read_setting({"k": value}, "k", kind)
    assert str(info.value) == f"k must be {what}, got {value!r}"


def test_read_setting_gives_the_default_for_an_absent_or_null_key():
    assert bench._read_setting({}, "k", "number", 3.0) == 3.0
    assert bench._read_setting({"k": None}, "k", "bool", False) is False
    assert bench._read_setting({}, "k", "names") is None


# ---------------------------------------------------------------------------
# invariants


def test_field_snapshot_round_trip_real(tmp_path):
    from phistep.bench import load_field, save_field

    grid = Grid.uniform(2, 8, (0.0, 2 * math.pi))
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 8, 8))
    path = save_field(tmp_path / "field.txt", values, grid, 1.25, problem="schnak2")
    back, grid2, time, problem = load_field(path)
    assert np.array_equal(back, values)
    assert grid2 == grid
    assert time == 1.25
    assert problem == "schnak2"
    assert path.read_text().splitlines()[0] == "# phistep-field 1"


def test_field_snapshot_round_trip_complex(tmp_path):
    from phistep.bench import load_field, save_field

    grid = Grid.uniform(1, 16, (-math.pi, math.pi))
    rng = np.random.default_rng(5)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    path = save_field(tmp_path / "field.txt", values, grid, 0.5)
    back, grid2, time, _ = load_field(path)
    assert back.shape == (1, 16)
    assert np.array_equal(back[0], values)
    assert grid2 == grid


def test_field_snapshot_rejects_unknown_version(tmp_path):
    from phistep.bench import load_field, save_field

    grid = Grid.uniform(1, 8, (0.0, 1.0))
    path = save_field(tmp_path / "field.txt", np.ones(8), grid, 0.0)
    good = path.read_text()
    for token in ("99", "v1"):
        path.write_text(good.replace("phistep-field 1", f"phistep-field {token}"))
        with pytest.raises(ValueError, match="version") as info:
            load_field(path)
        assert str(path) in str(info.value) and repr(token) in str(info.value)


def _former_save_field(path, values, grid, time, *, problem=""):
    """The one-string writer that the streaming save_field replaced,
    verbatim."""
    values = np.asarray(values)
    if values.shape[-grid.dims:] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not end in {grid.shape}")
    if values.ndim == grid.dims:
        values = values[np.newaxis]
    if values.ndim != grid.dims + 1:
        raise ValueError(f"expected (components, *grid) layout, got {values.shape}")
    is_complex = np.iscomplexobj(values)
    lines = [
        f"# phistep-field {bench.FIELD_FORMAT_VERSION}",
        f"# problem {problem}",
        f"# sizes {' '.join(str(n) for n in grid.sizes)}",
        "# domain " + " ".join(repr(float(e)) for a_b in grid.domain for e in a_b),
        f"# time {float(time)!r}",
        f"# components {values.shape[0]}",
        f"# kind {'complex' if is_complex else 'real'}",
    ]
    if is_complex:
        lines.extend(f"{complex(z).real!r} {complex(z).imag!r}" for z in values.ravel())
    else:
        lines.extend(repr(float(v)) for v in values.ravel())
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _fields_to_dump():
    rng = np.random.default_rng(8)
    grid2 = Grid.uniform(2, 96, (0.0, 2 * math.pi))
    real = rng.standard_normal((3, 96, 96)) * 10.0 ** rng.integers(-300, 300, (3, 96, 96))
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1]
    real.flat[: len(special)] = special
    cplx = real[:2] + 1j * rng.standard_normal((2, 96, 96))
    cplx.flat[: len(special)] = [complex(x, -y) for x, y in zip(special, reversed(special))]
    grid1 = Grid.uniform(1, 8, (0.0, 1.0))
    with np.errstate(over="ignore"):  # out-of-range values become inf
        single = real[1].astype(np.float32), cplx[0].astype(np.complex64)
    return [
        ("real", real, grid2),  # 27,648 values: one full chunk and a ragged one
        ("complex", cplx, grid2),
        ("transposed", real[0].T, grid2),  # not C-contiguous
        ("float32", single[0], grid2),
        ("complex64", single[1], grid2),
        ("int", np.arange(8), grid1),
        ("one component", np.ones(8), grid1),
    ]


@pytest.mark.parametrize("case", range(7))
def test_save_field_is_byte_identical_to_the_former_writer(tmp_path, case):
    from phistep.bench import save_field

    name, values, grid = _fields_to_dump()[case]
    new = save_field(tmp_path / "new.txt", values, grid, 0.375, problem="sh2")
    old = _former_save_field(tmp_path / "old.txt", values, grid, 0.375, problem="sh2")
    assert new.read_bytes() == old.read_bytes(), name


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_save_field_memory_is_bounded_by_the_chunk(tmp_path, kind):
    # a real 64^3 field (the one-string writer traced about 30 MB for it)
    # and a two-component complex 256^2 one: streaming holds one chunk's
    # strings at a time
    from phistep.bench import save_field

    rng = np.random.default_rng(9)
    if kind == "real":
        grid = Grid.uniform(3, 64, (0.0, 2 * math.pi))
        values = rng.standard_normal(grid.shape)
    else:
        grid = Grid.uniform(2, 256, (0.0, 2 * math.pi))
        values = rng.standard_normal((2, *grid.shape)) + 1j * rng.standard_normal((2, *grid.shape))
    tracemalloc.start()
    try:
        path = save_field(tmp_path / "field.txt", values, grid, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 256 * bench._FIELD_CHUNK
    assert bound < path.stat().st_size  # the whole text would not fit
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("case", range(7))
def test_load_field_reads_every_dump_back_bit_for_bit(tmp_path, case):
    # real, complex and one-component dumps, with the special values, a
    # full chunk and a ragged one
    from phistep.bench import load_field, save_field

    name, values, grid = _fields_to_dump()[case]
    path = save_field(tmp_path / "field.txt", values, grid, 0.375, problem="sh2")
    back, grid2, time, problem = load_field(path)
    want = np.asarray(values)
    want = want.astype(np.complex128 if np.iscomplexobj(want) else np.float64)
    assert back.shape == ((1, *grid.shape) if want.ndim == grid.dims else want.shape)
    assert back.dtype == want.dtype, name
    assert _bits(back) == _bits(want), name
    assert (grid2, time, problem) == (grid, 0.375, "sh2")


def _bits(values):
    """The bytes of a float or complex array's parts in C order, every NaN
    made the one np.nan: the text format writes each NaN as nan."""
    parts = np.ascontiguousarray(values).reshape(-1).view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


def _dump_lines(tmp_path, kind):
    from phistep.bench import save_field

    grid = Grid.uniform(1, 8, (0.0, 1.0))
    values = np.arange(8.0) + (1j * np.arange(8.0) if kind == "complex" else 0)
    path = save_field(tmp_path / "field.txt", values, grid, 0.0)
    return path, path.read_text().splitlines()


# edits of the 15 lines of an 8-value dump (7 header lines): each takes
# the lines and one valid value line
_BAD_BODIES = {
    "malformed": (lambda lines, value: lines[:9] + ["1.5x"] + lines[10:], 10, "expected"),
    # float() reads this as 10.0; the reader's parser does not
    "underscore": (lambda lines, value: lines[:10] + ["1_0"] + lines[11:], 11, "expected"),
    "columns": (lambda lines, value: lines[:11] + ["1 2 3"] + lines[12:], 12, "expected"),
    "comment": (lambda lines, value: lines[:8] + ["# a note"] + lines[9:], 9, "expected"),
    "extra value": (lambda lines, value: lines + [value], 16, "more values"),
    "short": (lambda lines, value: lines[:-2], 13, "ends after 6 values"),
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("bad", sorted(_BAD_BODIES))
def test_load_field_names_the_file_and_line_of_a_bad_body(tmp_path, kind, bad):
    from phistep.bench import load_field

    edit, line, what = _BAD_BODIES[bad]
    path, lines = _dump_lines(tmp_path, kind)
    assert len(lines) == 15
    path.write_text("\n".join(edit(lines, lines[-1])) + "\n")
    with pytest.raises(ValueError, match=what) as info:
        load_field(path)
    assert f"{path}, line {line}:" in str(info.value)


# edits of a real 8-value dump's header, each with the words its error
# names besides the file
_BAD_HEADERS = {
    "no tag": (lambda lines: lines[1:], "is not a phistep field dump"),
    "no sizes": (lambda lines: [line for line in lines if not line.startswith("# sizes")],
                 "malformed header: 'sizes'"),
    "unknown kind": (lambda lines: [line.replace("# kind real", "# kind integer")
                                    for line in lines], "unknown kind 'integer'"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_HEADERS))
def test_load_field_names_the_file_of_a_bad_header(tmp_path, bad):
    from phistep.bench import load_field

    edit, what = _BAD_HEADERS[bad]
    path, lines = _dump_lines(tmp_path, "real")
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=re.escape(what)) as info:
        load_field(path)
    assert str(info.value).startswith(str(path))


@pytest.mark.parametrize("shape, what", [
    ((2, 8, 4), "field shape (2, 8, 4) does not end in (8, 8)"),
    ((3, 2, 8, 8), "expected (components, *grid) layout, got (3, 2, 8, 8)"),
], ids=["grid shape", "leading axes"])
def test_save_field_names_the_shape_it_rejects(tmp_path, shape, what):
    from phistep.bench import save_field

    grid = Grid.uniform(2, 8, (0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(what)):
        save_field(tmp_path / "field.txt", np.zeros(shape), grid, 0.0)
    assert not (tmp_path / "field.txt").exists()


def test_load_field_skips_blank_lines(tmp_path):
    from phistep.bench import load_field

    path, lines = _dump_lines(tmp_path, "real")
    path.write_text("\n".join(lines[:9] + ["", "   "] + lines[9:] + [""]) + "\n")
    assert load_field(path)[0].tobytes() == np.arange(8.0).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_load_field_memory_is_bounded_by_the_chunk(tmp_path, kind):
    # the same fields as the writer's test: reading the whole text at once
    # traced 35 times the field for the real one; parsed chunk by chunk the
    # memory beyond the output array is a fixed multiple of the chunk
    from phistep.bench import load_field, save_field

    rng = np.random.default_rng(9)
    if kind == "real":
        grid = Grid.uniform(3, 64, (0.0, 2 * math.pi))
        values = rng.standard_normal(grid.shape)
    else:
        grid = Grid.uniform(2, 256, (0.0, 2 * math.pi))
        values = rng.standard_normal((2, *grid.shape)) + 1j * rng.standard_normal((2, *grid.shape))
    path = save_field(tmp_path / "field.txt", values, grid, 1.0)
    tracemalloc.start()
    try:
        back = load_field(path)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bits(back) == _bits(values)
    bound = back.nbytes + 256 * bench._FIELD_CHUNK
    assert 256 * bench._FIELD_CHUNK < path.stat().st_size  # the whole text would not fit
    assert peak < bound, (peak, bound)


def test_error_floor_moves_down_with_reference_resolution():
    probe, system = _probe_system(name="floor-probe")
    exact = complex(probe.solution(probe.T))
    coarse = reference_solution(system, probe.T, 0.1)
    fine = reference_solution(system, probe.T, 0.05)
    err_coarse = abs(complex(coarse[0]) - exact) / abs(exact)
    err_fine = abs(complex(fine[0]) - exact) / abs(exact)
    assert err_fine < err_coarse


def test_ac_sweep_errors_decrease_with_h():
    plan = make_plan("ac", ["etdrk4", "lawson4"])
    records = run_sweep(plan, repetitions=1)
    by_scheme = {}
    for r in records:
        by_scheme.setdefault(r.scheme, []).append(r)
    for scheme, recs in by_scheme.items():
        errors = [r.error for r in recs if r.stable]
        assert len(errors) >= 4, f"{scheme} lost too many points"
        inversions = sum(1 for a, b in zip(errors, errors[1:]) if b >= a)
        assert inversions <= 1, f"{scheme} errors not monotone: {errors}"
