import csv
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from zetascope.cli import (
    EXIT_INVALID,
    EXIT_NO_RESULT,
    EXIT_OK,
    build_parser,
    main,
    parse_complex,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2") == -2.0
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex("2i") == 2j
    assert parse_complex("-i") == -1j
    assert parse_complex("1e-3+2e2i") == 0.001 + 200j
    assert parse_complex("0.75+i") == 0.75 + 1j
    assert parse_complex("2-j") == 2 - 1j
    for bad in ("nonsense", ".8.5j", "1 + 2i", "nan", ""):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_help_on_no_args(capsys):
    code, out, _ = run_cli(capsys)
    assert code == EXIT_OK
    assert "solve-omega" in out
    assert "universality" in out


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta-eval", "--nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["zeros", "--format", "csv"],
    ["mollifier", "--q", "3", "--threads", "2"],
    ["solve-omega", "--n", "1", "--sigma0", "0.75", "--targets", "1.0", "--eps", "0.1"],
    ["calibrate", "--n", "1", "--sigma0", "0.75", "--targets", "1.0", "--eps", "0.1"],
])
def test_options_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("targets, want", [
    (["--targets=0.139-1.132j", "-0.2296+2.0802j"], ["0.139-1.132j", "-0.2296+2.0802j"]),
    (["--targets", "1", "-2"], ["1", "-2"]),
])
def test_negative_targets_are_values(targets, want):
    for cmd in (["scan", "--t", "2000", "--h", "20"], ["solve-omega"], ["calibrate"]):
        args = build_parser().parse_args(cmd + ["--sigma0", "0.75", *targets, "--eps", "0.1"])
        assert args.targets == want


def test_zeta_eval_record(capsys):
    code, out, _ = run_cli(capsys, "zeta-eval", "--s", "2")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["value"]["re"] == pytest.approx(1.6449340668, abs=1e-9)


def test_zeta_eval_pole_rejected(capsys):
    code, _, err = run_cli(capsys, "zeta-eval", "--s", "1")
    assert code == EXIT_INVALID
    assert "pole" in err


@pytest.mark.parametrize("tol", ["nan", "0"])
def test_zeta_eval_tolerance_not_positive_rejected(capsys, tol):
    code, out, err = run_cli(capsys, "zeta-eval", "--s", "0.75+100i", "--tol", tol)
    assert code == EXIT_INVALID
    assert out == "" and "tol" in err


def test_solve_omega_happy_path(capsys):
    code, out, _ = run_cli(
        capsys, "solve-omega", "--sigma0", "0.75", "--targets", "1.0",
        "--eps", "0.1", "--phases",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    report = json.loads(lines[0])
    assert report["ok"] is True
    assert report["max_residual"] < 0.1
    phases = [json.loads(l) for l in lines[1:]]
    assert phases[0]["prime"] == 2


def test_solve_omega_validation(capsys):
    code, _, err = run_cli(
        capsys, "solve-omega", "--sigma0", "0.4", "--targets", "1.0", "--eps", "0.1"
    )
    assert code == EXIT_INVALID
    assert "sigma0" in err
    code, _, err = run_cli(
        capsys, "solve-omega", "--sigma0", "0.75", "--targets", "1.0", "--eps", "1.5"
    )
    assert code == EXIT_INVALID
    assert "eps" in err


def test_scan_window_rejection_prints_bound(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--t", "10000", "--h", "10", "--sigma0", "0.75",
        "--targets", "1.0", "--eps", "0.1",
    )
    assert code == EXIT_INVALID
    assert "20.75" in err


def test_scan_zeta_zero_b0(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--mode", "zeta", "--t", "100", "--h", "10",
        "--sigma0", "0.75", "--targets", "0", "--eps", "0.1",
    )
    assert code == EXIT_INVALID
    assert "b_0" in err


def test_scan_default_step_at_t_one_rejected(capsys):
    """The default grid step 2 pi / (20 log t) has no value at t = 1."""
    code, _, err = run_cli(
        capsys, "scan", "--mode", "zeta", "--t", "1", "--h", "1", "--sigma0", "0.9",
        "--targets", "1.0", "--eps", "0.35",
    )
    assert code == EXIT_INVALID
    assert "t > 1" in err


def test_scan_log_readme_command(capsys):
    """The README's `scan --mode log` command finds the one shift near
    2003.2863 whose log zeta and its derivative the targets round."""
    code, out, _ = run_cli(
        capsys, "scan", "--mode", "log", "--t", "2000", "--h", "12.5", "--sigma0", "0.75",
        "--targets=0.72804749-0.27156465j", "-1.07329941-0.59113509j", "--eps", "1e-3",
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    hits = [l for l in lines if "tau" in l]
    step = 2.0 * math.pi / (20.0 * math.log(2000.0))
    assert len(hits) == 1 and abs(hits[0]["tau"] - 2003.2863) < step
    assert max(hits[0]["residuals"]) < 1e-3


def test_scan_zero_threads_rejected(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--mode", "zeta", "--t", "100", "--h", "10",
        "--sigma0", "0.75", "--targets", "1.0", "--eps", "0.1", "--threads", "0",
    )
    assert code == EXIT_INVALID
    assert "threads" in err


def test_scan_csv_roundtrip(tmp_path, capsys):
    out_csv = tmp_path / "hits.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--mode", "zeta", "--t", "10000", "--h", "25",
        "--sigma0", "0.9", "--targets", "1.0", "--eps", "0.35",
        "--csv-out", str(out_csv),
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    hits = [l for l in lines if "tau" in l]
    summary = [l for l in lines if l.get("summary")][0]
    assert summary["hits"] == len(hits)
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(hits)
    for row, hit in zip(rows, hits):
        assert float(row["tau"]) == pytest.approx(hit["tau"], abs=1e-9)
        assert float(row["max_residual"]) == pytest.approx(
            max(hit["residuals"]), abs=1e-12
        )


def test_scan_unwritable_csv_out_rejected(capsys, monkeypatch):
    """A --csv-out path that cannot be opened is invalid input, refused
    before the scan runs."""
    from zetascope import scan

    monkeypatch.setattr(scan, "scan_derivs", lambda *a, **k: pytest.fail("the scan ran"))
    code, out, err = run_cli(
        capsys, "scan", "--mode", "zeta", "--t", "100", "--h", "20", "--sigma0", "0.9",
        "--targets", "1.0", "--eps", "0.35", "--csv-out", "/nonexistent/x.csv",
    )
    assert code == EXIT_INVALID
    assert out == "" and err.startswith("error:") and "/nonexistent/x.csv" in err


def test_zeros_count_and_list(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--count-alpha", "0.1", "--t", "0",
                           "--h", "50")
    assert code == EXIT_OK
    assert json.loads(out.strip().splitlines()[0])["count"] == 10

    code, out, _ = run_cli(capsys, "zeros", "--count-alpha", "0.75", "--t", "0",
                           "--h", "50", "--envelope")
    assert code == EXIT_OK
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert recs[0]["count"] == 0
    assert recs[1]["exponent"] == pytest.approx(2.0 / 3.0)

    code, out, _ = run_cli(capsys, "zeros", "--to", "50")
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert rows[0] == "index,ordinate"
    assert len(rows) == 11
    assert float(rows[1].split(",")[1]) == pytest.approx(14.134725, abs=1e-5)


@pytest.mark.parametrize("argv, name", [
    ("zeros --to inf", "t_hi"),
    ("zeros --count-alpha 0.75 --t inf --h 50", "t"),
    ("zeros --count-alpha 0.75 --t 0 --h inf", "h"),
    ("solve-omega --sigma0 0.75 --targets 1.0 --eps 0.1 --u0 inf", "u0"),
    ("solve-omega --sigma0 0.75 --targets 1.0 --eps 0.1 --c1 nan", "c1"),
    ("solve-omega --sigma0 0.75 --targets 1.0 --eps 0.1 --c1 inf", "c1"),
    ("zeta-eval --s 0.75+100i --tol inf", "tol"),
    ("mollifier --q 3 --curve-mean --t inf --h 10", "t0"),
    ("mollifier --q 3 --curve-mean --t nan --h 10", "t0"),
    ("mollifier --q inf --delta 0.1", "q"),
    ("mollifier --q nan --delta 0.1", "q"),
])
def test_non_finite_input_rejected(capsys, argv, name):
    """A non-finite number is refused where it enters, with exit 2 and the
    parameter's name, not an OverflowError traceback or a NaN record."""
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_INVALID
    assert out == "" and err.startswith(f"error: {name} must")


def test_mollifier_csv(capsys):
    code, out, err = run_cli(capsys, "mollifier", "--q", "3", "--m-cutoff", "16")
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert rows[0] == "n,re_alpha,im_alpha"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-10)


def test_calibrate_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--sigma0", "0.75", "--targets", "1.0", "--eps", "0.1"
    )
    assert code == EXIT_OK
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["u0"] > 1.0
    assert rec["ok"] is True


def test_universality_cli_no_hits(capsys):
    code, _, err = run_cli(
        capsys, "universality", "--target", "exp", "--eps", "0.3",
        "--t", "50", "--h", "12",
    )
    assert code == EXIT_NO_RESULT
    assert "no shift" in err


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    """Every command of the README's CLI block exits 0 (the scan line
    writes hits.csv into the working directory)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = block.strip().splitlines()
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert line.startswith("python -m zetascope ")
        assert main(shlex.split(line)[3:]) == EXIT_OK, line
        capsys.readouterr()
