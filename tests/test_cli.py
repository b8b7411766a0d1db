"""CLI tests: catalog listing, single runs with snapshots and analytic
comparison, bench sweeps with manifest round-trips, order estimation,
self-test, and the exit-code contract (0 ok, 2 bad input, 3 unstable)."""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from phistep import cli
from phistep.bench import (clear_reference_cache, load_field, make_plan, plan_from_manifest,
                           plan_to_manifest, read_records)
from phistep.cli import main
from phistep.problems import default_grid, get_problem


@pytest.fixture(autouse=True)
def _sandbox(tmp_path, monkeypatch):
    monkeypatch.setenv("PHISTEP_OUT", str(tmp_path / "outroot"))
    clear_reference_cache()
    yield
    clear_reference_cache()


# ---------------------------------------------------------------------------
# list


def test_list_contains_catalog_rows(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ETDRK4  ETD Runge–Kutta  4  4  1" in out
    assert "kdv  1D  third-order dispersive" in out
    scheme_rows = [
        line for line in out.splitlines()
        if line.startswith("  ") and line.split("  ")[-3].isdigit()
    ]
    assert len(scheme_rows) >= 15


# ---------------------------------------------------------------------------
# run


def test_run_unknown_scheme_exits_2_naming_token(capsys):
    assert main(["run", "ks", "--scheme", "etdrk9", "--h", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "etdrk9" in err


def test_run_unknown_problem_exits_2_naming_token(capsys):
    assert main(["run", "kzz", "--scheme", "etdrk4", "--h", "0.1"]) == 2
    assert "kzz" in capsys.readouterr().err


def test_run_without_step_exits_2(capsys):
    assert main(["run", "ks"]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("flags, cause", [
    (["--h", "-1"], "step size must be positive"),
    (["--h", "0.5", "--T", "inf"], "horizon must be positive and finite, got inf"),
    (["--scheme", "abnorsett6", "--h", "100", "--T", "1"],
     "abnorsett6 needs at least 5 steps but h=100 gives only 1 over T=1"),
    (["--size", "7", "--h", "0.5"], "bad run settings: axis sizes must be even and positive, got 7"),
    (["--size", "0", "--h", "0.5"], "bad run settings: axis sizes must be even and positive, got 0"),
    (["--h", "inf"], "step size must be positive and finite, got inf"),
])
def test_run_rejected_settings_exit_2_naming_cause(flags, cause, tmp_path, capsys):
    assert main(["run", "ks", "--desk", *flags, "--out", str(tmp_path)]) == 2
    assert cause in capsys.readouterr().err


def test_run_nls_desk_compare_analytic(tmp_path, capsys):
    out = tmp_path / "runout"
    code = main(["run", "nls", "--scheme", "etdrk4", "--h", "1e-3", "--desk",
                 "--compare-analytic", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "steps 500" in text
    assert "ffts" in text and "seconds" in text
    line = [l for l in text.splitlines() if "error vs analytic" in l]
    assert len(line) == 1
    error = float(line[0].split()[-1])
    assert 0 < error < 1e-6
    assert (out / "nls_etdrk4_final.txt").exists()
    assert (out / "nls_etdrk4_run.json").exists()


def test_run_compare_analytic_rejected_without_closed_form(capsys):
    assert main(["run", "ks", "--h", "0.5", "--desk", "--compare-analytic"]) == 2
    assert "nls" in capsys.readouterr().err


def test_run_writes_snapshots_and_final_field(tmp_path, capsys):
    out = tmp_path / "snaps"
    code = main(["run", "ks", "--scheme", "etdrk4", "--h", "0.5", "--desk",
                 "--T", "2", "--snapshots", "0.5,1.0", "--out", str(out)])
    assert code == 0
    final, grid, time, problem = load_field(out / "ks_etdrk4_final.txt")
    assert problem == "ks"
    assert time == 2.0
    assert grid.sizes == (64,)
    assert final.shape == (1, 64)
    assert np.isrealobj(final) and np.all(np.isfinite(final))
    for t in ("0.5", "1"):
        snap_path = out / f"ks_etdrk4_t{t}.txt"
        assert snap_path.exists()
        _, _, snap_time, _ = load_field(snap_path)
        assert snap_time == float(t)


def test_run_instability_exits_3_with_time(capsys):
    with np.errstate(all="ignore"):
        code = main(["run", "ks", "--scheme", "abnorsett4", "--h", "1.875", "--desk"])
    assert code == 3
    err = capsys.readouterr().err
    assert "unstable at t=" in err


def test_run_warns_when_the_multistep_starter_does_not_converge(tmp_path, monkeypatch, capsys):
    from phistep import integrator

    monkeypatch.setattr(integrator, "MAX_STARTER_ITERATIONS", 1)
    code = main(["run", "nls", "--desk", "--scheme", "abnorsett4", "--h", "0.03125",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "warning: multistep starter did not converge" in capsys.readouterr().err


def test_run_from_manifest_file_with_comments(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text(
        "# single desk-scale integration\n"
        '{"problem": "nls", "scheme": "etdrk4", "h": 1e-3,\n'
        '# horizon and grid come from the desk defaults\n'
        ' "desk": true}\n'
    )
    out = tmp_path / "mrun"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "nls_etdrk4_final.txt").exists()


def test_run_bad_manifest_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--manifest", str(bad)]) == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("h", "abc"), ("T", "x")])
def test_run_manifest_bad_number_exits_2_naming_it(tmp_path, capsys, key, value):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"problem": "nls", "h": 1e-2, "desk": True, key: value}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"bad run settings: {key} must be a number, got {value!r}" in err


@pytest.mark.parametrize("key, value, kind", [
    ("size", "abc", "an integer"), ("size", 16.5, "an integer"), ("size", True, "an integer"),
    ("snapshots", 5, "a list of times or a comma-separated string"),
    ("snapshots", ["a"], "a list of times or a comma-separated string"),
])
def test_run_manifest_bad_setting_exits_2_naming_it(tmp_path, capsys, key, value, kind):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"problem": "nls", "h": 1e-2, "desk": True, key: value}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"bad run settings: {key} must be {kind}, got {value!r}" in err


@pytest.mark.parametrize("key, value, kind", [
    ("h", True, "a number"), ("T", False, "a number"),
    ("snapshots", [0.1, True], "a list of times or a comma-separated string"),
    ("desk", "no", "true or false"), ("desk", 1, "true or false"),
    ("compare_analytic", "yes", "true or false"),
    ("reproduce_printed_delta0", 0, "true or false"),
])
def test_run_manifest_rejects_json_of_the_wrong_type(tmp_path, capsys, key, value, kind):
    # float(True) is 1.0 and bool("no") is True, so these once ran
    manifest = tmp_path / "run.json"
    settings = {"problem": "nls", "h": 1e-2, "T": 0.02, "desk": True}
    manifest.write_text(json.dumps({**settings, key: value}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"bad run settings: {key} must be {kind}, got {value!r}" in err


def test_run_manifest_with_a_boolean_step_and_a_string_flag_exits_2(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"problem": "nls", "h": True, "T": 2, "desk": "no"}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "bad run settings: h must be a number, got True" in captured.err
    assert captured.out == ""  # nothing ran
    manifest.write_text(json.dumps({"problem": "nls", "h": 0.5, "T": 2, "desk": "no"}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    assert "bad run settings: desk must be true or false, got 'no'" in capsys.readouterr().err


def test_run_manifest_integer_strings_and_snapshot_lists_pass(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "problem": "nls", "h": 0.01, "T": 0.02, "desk": True, "size": "32",
        "snapshots": [0.01]}))
    out = tmp_path / "mrun"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    echo = json.loads((out / "nls_etdrk4_run.json").read_text())
    assert (echo["size"], echo["snapshots"]) == (32, [0.01])
    assert (out / "nls_etdrk4_t0.01.txt").exists()


@pytest.mark.parametrize("key, value", [("problem", 5), ("scheme", 4), ("problem", ["nls"])])
def test_run_manifest_name_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, key, value):
    # these once ended in an AttributeError traceback
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"problem": "nls", "h": 1e-2, "desk": True, key: value}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    assert f"bad run settings: {key} must be a string, got {value!r}" in capsys.readouterr().err


def test_run_from_its_own_echo_writes_the_same_bytes(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "ks", "--desk", "--h", "0.3", "--T", "3", "--snapshots", "1.5",
                 "--out", str(first)]) == 0
    assert main(["run", "--manifest", str(first / "ks_etdrk4_run.json"),
                 "--out", str(second)]) == 0
    for name in ("ks_etdrk4_final.txt", "ks_etdrk4_t1.5.txt", "ks_etdrk4_run.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_run_contour_flag_is_gone(tmp_path, capsys):
    # argparse refuses the flag itself, by exit code 2
    with pytest.raises(SystemExit) as info:
        main(["run", "ks", "--h", "0.1", "--contour", "16", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --contour 16" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["shceme", "contour_points"])
def test_run_manifest_unknown_key_exits_2_naming_it(tmp_path, capsys, key):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"problem": "nls", "h": 1e-2, "desk": True, key: 16}))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"bad run settings: unknown manifest key {key!r}" in captured.err
    assert captured.out == ""  # nothing ran


def test_run_flags_override_manifest_keys(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "ks", "--desk", "--h", "0.3", "--T", "3", "--out", str(first)]) == 0
    assert main(["run", "--manifest", str(first / "ks_etdrk4_run.json"), "--T", "1.5",
                 "--scheme", "lawson4", "--out", str(second)]) == 0
    echo = json.loads((second / "ks_lawson4_run.json").read_text())
    assert (echo["T"], echo["scheme"], echo["h"], echo["desk"]) == (1.5, "lawson4", 0.3, True)


def test_run_uses_env_output_root(tmp_path, capsys):
    code = main(["run", "nls", "--scheme", "etdrk4", "--h", "1e-2", "--desk"])
    assert code == 0
    assert (tmp_path / "outroot" / "nls_etdrk4_final.txt").exists()


# ---------------------------------------------------------------------------
# bench


def _tiny_bench_args(tmp_path, extra=()):
    return ["bench", "ks", "--schemes", "etdrk4", "--desk",
            "--ladder", "0.625,0.3125,0.15625", "--reps", "1",
            "--jobs", "1", "--out", str(tmp_path / "bench")] + list(extra)


def test_bench_writes_csv_svg_manifest(tmp_path, capsys):
    assert main(_tiny_bench_args(tmp_path)) == 0
    out = tmp_path / "bench"
    assert (out / "ks.csv").exists()
    assert (out / "ks.svg").exists()
    assert (out / "ks.json").exists()
    rows = read_records(out / "ks.csv")
    assert len(rows) == 3 and all(r.stable for r in rows)


def test_bench_flags_abnorsett_unstable_at_largest_h(tmp_path, capsys):
    out = tmp_path / "gap"
    with np.errstate(all="ignore"):
        code = main(["bench", "ks", "--schemes", "abnorsett5,etdrk4", "--desk",
                     "--ladder", "0.9375,0.46875,0.1171875", "--reps", "1",
                     "--jobs", "1", "--out", str(out)])
    assert code == 0
    records = read_records(out / "ks.csv")
    largest = max(r.h for r in records)
    ab_top = [r for r in records if r.scheme == "abnorsett5" and r.h == largest]
    rk_top = [r for r in records if r.scheme == "etdrk4" and r.h == largest]
    assert len(ab_top) == 1 and not ab_top[0].stable
    assert len(rk_top) == 1 and rk_top[0].stable


def test_bench_manifest_round_trip_reproduces_csv(tmp_path, capsys):
    assert main(_tiny_bench_args(tmp_path)) == 0
    first = tmp_path / "bench" / "ks.csv"
    manifest = tmp_path / "bench" / "ks.json"
    out2 = tmp_path / "again"
    assert main(["bench", "--manifest", str(manifest), "--reps", "1",
                 "--jobs", "1", "--out", str(out2)]) == 0
    second = out2 / "ks.csv"

    def strip_seconds(path):
        with open(path, newline="") as fh:
            return [[f for i, f in enumerate(row) if i != 4]
                    for row in csv.reader(fh)]

    assert strip_seconds(first) == strip_seconds(second)


@pytest.mark.parametrize("key, value", [("grid", 64), ("schemes", "etdrk4")])
def test_bench_manifest_wrong_type_exits_2_naming_the_key(tmp_path, capsys, key, value):
    manifest = plan_to_manifest(make_plan("ks", ["etdrk4"], count=3))
    manifest[key] = value
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(manifest))
    assert main(["bench", "--manifest", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"bad bench manifest: manifest key {key!r} must be a list, got {value!r}" in err


@pytest.mark.parametrize("key, value, kind", [
    ("T", True, "a number"),
    ("grid", [32.5], "a list of integers"),
    ("problem", ["nls"], "a string"),
    ("jobs", True, "an integer"),
    ("repetitions", 1.5, "an integer"),
])
def test_bench_manifest_bad_value_exits_2_naming_the_key(tmp_path, capsys, key, value, kind):
    # T = true once ran at T = 1.0, and grid [32.5] at 32
    manifest = plan_to_manifest(make_plan("ks", ["etdrk4"], count=3))
    manifest[key] = value
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(manifest))
    assert main(["bench", "--manifest", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"bad bench manifest: manifest key {key!r} must be {kind}, got {value!r}" in captured.err
    assert captured.out == ""  # nothing ran


def _tiny_echo(tmp_path):
    """The manifest echo of a tiny ks sweep at T = 1 (reps 1, jobs 1)."""
    out = tmp_path / "first"
    assert main(["bench", "ks", "--schemes", "etdrk4", "--T", "1",
                 "--ladder", "0.125,0.0625,0.03125", "--reps", "1", "--jobs", "1",
                 "--out", str(out)]) == 0
    return out / "ks.json"


def test_bench_flags_override_manifest_keys(tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["bench", "--manifest", str(_tiny_echo(tmp_path)), "--T", "0.25",
                 "--schemes", "lawson4", "--out", str(out)]) == 0
    echo = json.loads((out / "ks.json").read_text())
    assert (echo["T"], echo["schemes"]) == (0.25, ["lawson4"])
    # keys no flag sets come from the manifest: jobs and repetitions too
    assert echo["ladder"] == [0.125, 0.0625, 0.03125] and echo["grid"] == [64]
    assert (echo["jobs"], echo["repetitions"]) == (1, 1)
    assert {r.scheme for r in read_records(out / "ks.csv")} == {"lawson4"}


def test_bench_size_and_count_flags_replace_the_manifests_grid_and_ladder(tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["bench", "--manifest", str(_tiny_echo(tmp_path)), "--size", "32",
                 "--count", "2", "--reps", "2", "--out", str(out)]) == 0
    echo = json.loads((out / "ks.json").read_text())
    assert (echo["grid"], echo["ladder"], echo["repetitions"]) == ([32], [1 / 16, 1 / 32], 2)


@pytest.mark.parametrize("key", ["shemes", "contour_points"])
def test_bench_manifest_unknown_key_exits_2_naming_it(tmp_path, capsys, key):
    manifest = json.loads(_tiny_echo(tmp_path).read_text())
    manifest[key] = manifest["schemes"] if key == "shemes" else 64
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["bench", "--manifest", str(path), "--out", str(tmp_path / "again")]) == 2
    captured = capsys.readouterr()
    assert f"bad bench manifest: unknown manifest key {key!r}" in captured.err
    assert captured.out == ""  # nothing ran


def test_bench_paper_scale_over_an_echo_exits_2_naming_the_keys(tmp_path, capsys):
    # the echo gives the grid and T, so --paper-scale would change nothing
    echo = _tiny_echo(tmp_path)
    capsys.readouterr()
    assert main(["bench", "--manifest", str(echo), "--paper-scale",
                 "--out", str(tmp_path / "again")]) == 2
    assert ("bad bench manifest: manifest key 'paper_scale' changes nothing beside 'grid' "
            "and 'T'") in capsys.readouterr().err


def test_bench_unknown_scheme_exits_2(capsys, tmp_path):
    assert main(["bench", "ks", "--schemes", "nosuch", "--out", str(tmp_path)]) == 2
    assert "nosuch" in capsys.readouterr().err


def test_bench_desk_and_paper_scale_conflict(capsys, tmp_path):
    assert main(["bench", "ks", "--desk", "--paper-scale", "--out", str(tmp_path)]) == 2


def test_bench_desk_overrides_a_manifests_paper_scale(tmp_path, capsys):
    # at paper scale the reference solve of this sweep is unstable (exit 3)
    manifest = tmp_path / "ac.json"
    manifest.write_text(json.dumps(
        {"problem": "ac", "paper_scale": True, "count": 1, "schemes": ["etdrk4"]}))
    out = tmp_path / "desk"
    assert main(["bench", "--manifest", str(manifest), "--desk", "--reps", "1",
                 "--jobs", "1", "--out", str(out)]) == 0
    problem = get_problem("ac")
    echo = json.loads((out / "ac.json").read_text())
    assert (echo["T"], echo["grid"]) == (problem.desk_T, list(default_grid(problem).sizes))
    assert main(["bench", "--manifest", str(manifest), "--desk", "--paper-scale",
                 "--out", str(out)]) == 2
    assert "--desk and --paper-scale are mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_bench_empty_scheme_list_exits_2(tmp_path, capsys, source):
    if source == "flag":
        argv = ["bench", "ks", "--schemes", ","]
    else:
        manifest = tmp_path / "ks.json"
        manifest.write_text(json.dumps({"problem": "ks", "schemes": []}))
        argv = ["bench", "--manifest", str(manifest)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "a sweep needs at least one scheme" in captured.err
    assert captured.out == ""  # nothing ran


def test_bench_without_problem_or_manifest_exits_2(capsys):
    assert main(["bench"]) == 2


# ---------------------------------------------------------------------------
# order


def test_order_from_schemes(capsys):
    assert main(["order", "--schemes", "etdrk4,etdrk2"]) == 0
    out = capsys.readouterr().out
    assert "etdrk4" in out and "ok" in out


def test_order_from_csv(tmp_path, capsys):
    assert main(_tiny_bench_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(["order", "--csv", str(tmp_path / "bench" / "ks.csv")]) == 0
    out = capsys.readouterr().out
    assert "etdrk4" in out


def test_order_unknown_scheme_exits_2(capsys):
    assert main(["order", "--schemes", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_order_empty_scheme_list_exits_2(capsys):
    assert main(["order", "--schemes", ","]) == 2
    captured = capsys.readouterr()
    assert "--schemes names no scheme" in captured.err
    assert captured.out == ""


def test_order_missing_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    assert main(["order", "--csv", str(path)]) == 2
    assert f"No such file or directory: {str(path)!r}" in capsys.readouterr().err


def test_order_csv_with_another_header_exits_2(tmp_path, capsys):
    path = tmp_path / "other.csv"
    path.write_text("scheme,h\netdrk4,0.1\n")
    assert main(["order", "--csv", str(path)]) == 2
    assert f"{path} has header ['scheme', 'h']; expected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5
    assert "FAIL" not in out
    assert "selftest: PASS" in out
    assert "buffered step (workspace vs fresh)  PASS  20/20" in out
    assert ("transforms match numpy.fft          PASS  bit for bit: 32/32 in 1D, 2D and 3D "
            "(8 in halves)") in out


# ---------------------------------------------------------------------------
# the manifests in README


def _readme_manifests(tmp_path) -> dict:
    """The JSON blocks of README's Manifests section, by the file name
    their first comment line gives, each read as --manifest reads it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Manifests\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b for b in section.split("```")[1::2] if "{" in b]
    manifests = {}
    for block in blocks:
        name = block.strip().splitlines()[0].lstrip("# ").split()[0]
        path = tmp_path / name
        path.write_text(block, encoding="utf-8")
        manifests[name] = cli._load_manifest_file(path)
    return manifests


def test_readme_manifests_resolve_through_the_reader(tmp_path):
    manifests = _readme_manifests(tmp_path)
    assert sorted(manifests) == ["ks_sweep.json", "nls_run.json"]
    plan = plan_from_manifest(manifests["ks_sweep.json"])
    assert plan == make_plan("ks", ["abnorsett4", "abnorsett5", "abnorsett6", "etdrk4"],
                             size=64, T=30.0, ladder=[30.0 * 2.0 ** -k for k in range(4, 11)])
    run = cli._read_run(manifests["nls_run.json"])
    assert {key: value for key, value in run.items() if value is not None} == {
        "problem": "nls", "scheme": "etdrk4", "h": 1e-4, "compare_analytic": True}
    assert set(run) == set(cli._RUN_KINDS)
