"""End-to-end command line tests, run in process through main(argv)."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fermient import (asymptotics, cli, discretize, geometry, spectra,
                      validate)
from fermient.cli import main
from fermient.config import load_config
from fermient.discretize import DEFAULT_LATTICE_BUDGET, DiscretizationError
from fermient.records import append_partial_row, config_hash


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


LATTICE_ARGS = [
    "gamma.k_fermi=1.5707963267948966",
    "omega.shape=interval", "omega.intervals=0:1",
    "mode=lattice",
]


@pytest.fixture
def solves(monkeypatch):
    """Sizes of the lattice blocks solved, in call order."""
    sizes = []
    original = spectra._lattice_spectrum

    def counting(k_fermi, n):
        sizes.append(n)
        return original(k_fermi, n)

    monkeypatch.setattr(spectra, "_lattice_spectrum", counting)
    return sizes


def without_wall_times(record):
    for row in record["rows"]:
        row.pop("wall_time_s", None)
    return record


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_record_schema(capsys):
    record = run_json(capsys, "entropy", *LATTICE_ARGS,
                      "entropy.L=50", "alpha=1,2")
    assert record["command"] == "entropy"
    assert record["schema_version"] == 1
    assert [row["alpha"] for row in record["rows"]] == [1.0, 2.0]
    for row in record["rows"]:
        assert row["n"] == 50
        assert row["L"] == 50.0
        assert row["S"] > 0.0
        assert row["mode"] == "lattice"
        assert row["wall_time_s"] >= 0.0
    # Renyi order 2 is below von Neumann on every spectrum.
    assert record["rows"][1]["S"] < record["rows"][0]["S"]


def test_entropy_deterministic_modulo_timing(capsys):
    argv = ("entropy", *LATTICE_ARGS, "entropy.L=30", "alpha=0.5,1,inf")
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    for record in (first, second):
        for row in record["rows"]:
            row.pop("wall_time_s")
    assert first == second


def test_entropy_solves_once_for_all_orders(capsys, solves):
    record = run_json(capsys, "entropy", *LATTICE_ARGS, "entropy.L=50",
                      "alpha=0.5,1,2")
    assert solves == [50]
    for row in record["rows"]:
        single = run_json(capsys, "entropy", *LATTICE_ARGS, "entropy.L=50",
                          f"alpha={row['alpha']}")
        assert single["rows"][0]["S"] == row["S"]


def test_duplicate_alpha_exits_2(capsys):
    code, _, err = run_cli(capsys, "entropy", *LATTICE_ARGS, "alpha=1,2,1")
    assert code == 2
    assert "distinct" in json.loads(err)["error"]["message"]


def test_entropy_csv_output(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    record = run_json(capsys, "entropy", *LATTICE_ARGS, "entropy.L=20",
                      "alpha=1,2", "--csv", str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(record["rows"])
    header = lines[0].split(",")
    for column in ("alpha", "L", "n", "S"):
        assert column in header
    # Float cells round-trip exactly through repr.
    cell = dict(zip(header, lines[1].split(",")))
    assert float(cell["S"]) == record["rows"][0]["S"]


OMEGA_SPELLINGS = {
    "interval": ["omega.shape=interval", "omega.intervals=0:1"],
    "box": ["omega.shape=box", "omega.bounds=0:1"],
    "ball": ["omega.shape=ball", "omega.center=0.5", "omega.radius=0.5"],
}


@pytest.mark.parametrize("mode", ["auto", "lattice"])
def test_one_dimensional_omega_spellings_give_one_record(capsys, mode):
    # A one-pair box and a one-coordinate ball are read as the interval
    # 0:1; the ball once solved a 3-site lattice block at L = 3.5, its
    # volume coming out 0.9999999999999999.
    rows = {name: without_wall_times(run_json(
        capsys, "entropy", "gamma.k_fermi=1", *omega, f"mode={mode}",
        "entropy.L=3.5", "alpha=0.5,1,2"))["rows"]
        for name, omega in OMEGA_SPELLINGS.items()}
    assert rows["box"] == rows["interval"]
    assert rows["ball"] == rows["interval"]
    if mode == "lattice":
        assert {(row["n"], row["L"]) for row in rows["ball"]} == {(4, 4.0)}


def test_tensor_box_mode_on_one_axis_boxes_exits_3(capsys):
    # A one-pair box is an interval, which the tensor_box route refuses;
    # auto gives it the prolate route.
    pair = ["gamma.shape=box", "gamma.bounds=-1:1", "omega.shape=box",
            "omega.bounds=0:1", "entropy.L=10"]
    code, out, err = run_cli(capsys, "entropy", "mode=tensor_box", *pair)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "GeometryError"
    assert "tensor_box mode needs box momentum and spatial regions" \
        in error["message"]
    (row,) = run_json(capsys, "entropy", *pair)["rows"]
    assert row["mode"] == "prolate"


def test_config_file_and_override_precedence(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "gamma.k_fermi = 1.5707963267948966\n"
        "omega.shape = interval\n"
        "omega.intervals = 0:1\n"
        "mode = lattice\n"
        "entropy.L = 20\n"
        "alpha = 1\n")
    record = run_json(capsys, "entropy", "--config", str(path), "alpha=2")
    assert [row["alpha"] for row in record["rows"]] == [2.0]
    assert record["config"]["alpha"] == "2"


def test_entropy_writes_file_not_stdout(capsys, tmp_path):
    out = tmp_path / "record.json"
    code, stdout, _ = run_cli(capsys, "entropy", *LATTICE_ARGS,
                              "entropy.L=20", "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["command"] == "entropy"


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------

def test_bad_alpha_exits_2(capsys):
    code, out, err = run_cli(capsys, "entropy", *LATTICE_ARGS, "alpha=-1")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "alpha" in error["message"]


def test_dimension_mismatch_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "entropy",
        "gamma.k_fermi=1.0",
        "omega.shape=box", "omega.bounds=0:1,0:1")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    # The library's message: one wording for one decision.
    assert error["message"] == ("dimension mismatch: gamma has d=1, "
                                "omega has d=2")


def test_malformed_override_exits_2(capsys):
    code, _, err = run_cli(capsys, "entropy", "gamma.k_fermi")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"


def test_lattice_interval_union_exits_3(capsys):
    # Two intervals are not one block of sites.
    code, out, err = run_cli(
        capsys, "entropy", "mode=lattice", "gamma.k_fermi=1",
        "omega.shape=interval", "omega.intervals=0:1,2:3", "entropy.L=100")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "GeometryError"
    assert "single spatial interval" in error["message"]


def test_lattice_nearly_symmetric_sea_exits_3(capsys):
    # A 1e-10 asymmetry is no symmetric Fermi sea: central symmetry is
    # compared exactly.
    code, out, err = run_cli(
        capsys, "entropy", "mode=lattice", "gamma.shape=interval",
        "gamma.intervals=-1:1.0000000001", "omega.shape=interval",
        "omega.intervals=0:1", "entropy.L=100")
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "GeometryError"


def test_compute_failure_exits_3(capsys):
    code, _, err = run_cli(capsys, "entropy", *LATTICE_ARGS,
                           f"entropy.L={DEFAULT_LATTICE_BUDGET + 1}")
    assert code == 3
    error = json.loads(err)["error"]
    assert error["kind"] == "computation"
    assert "budget" in error["message"]


@pytest.mark.parametrize("L", ["inf", "nan", "0"])
def test_non_finite_or_non_positive_L_exits_2(capsys, L):
    code, out, err = run_cli(capsys, "entropy", *LATTICE_ARGS,
                             f"entropy.L={L}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "entropy.L" in error["message"]


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_bad_nodes_per_unit_exits_2(capsys, value):
    # Each route sets its own resolution, so disc.nodes_per_unit is not a
    # key: any value is a config error that names it.
    code, out, err = run_cli(capsys, "entropy", "gamma.k_fermi=1",
                             "omega.shape=interval", "omega.intervals=0:1",
                             "entropy.L=10", f"disc.nodes_per_unit={value}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "disc.nodes_per_unit" in error["message"]


@pytest.mark.parametrize("key, value", [
    # disc.budget caps lattice blocks too, so disc.lattice_budget is not a
    # key: any value is a config error that names it.
    ("disc.lattice_budget", "-5"),
    ("disc.lattice_budget", "0"),
    ("disc.budget", "-1"),
    ("disc.budget", "0"),
])
def test_bad_budget_exits_2(capsys, key, value):
    code, out, err = run_cli(capsys, "entropy", *LATTICE_ARGS,
                             "entropy.L=10", f"{key}={value}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert key in error["message"]


def test_entropy_rows_report_interior_count(capsys):
    record = run_json(capsys, "entropy", *LATTICE_ARGS, "entropy.L=200",
                      "alpha=0.25,1")
    counts = {row["interior"] for row in record["rows"]}
    assert len(counts) == 1             # one spectrum serves both orders
    assert 0 < counts.pop() <= 200


def test_continuum_mode_exits_2(capsys, no_solves):
    # auto sends interval unions and mixed pairs to the Nystrom matrix;
    # no mode forces it on other pairs.
    code, out, err = run_cli(capsys, "entropy", "mode=continuum",
                             "gamma.k_fermi=1", "omega.shape=interval",
                             "omega.intervals=0:1")
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith("mode")


def test_unknown_disc_key_exits_2(capsys):
    code, _, err = run_cli(capsys, "entropy", *LATTICE_ARGS,
                           "entropy.L=20", "disc.rule=midpoint")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "disc.rule" in error["message"]


SWEEP_ARGS = LATTICE_ARGS + ["sweep.L=40:160:4"]
BOX_PAIR = ["gamma.shape=box", "gamma.bounds=-1:1,-1:1",
            "omega.shape=box", "omega.bounds=0:1,0:1"]


@pytest.mark.parametrize("command, args, key", [
    ("entropy", LATTICE_ARGS, "disc.strict_nyquist=false"),
    ("sweep", SWEEP_ARGS, "sweep.weights=inverse_area"),
    ("functional", [], "functional.tol=nan"),
    ("jcoeff", BOX_PAIR, "jcoeff.method=quadrature"),
    ("entropy", LATTICE_ARGS, "gamma.radus=1"),
    ("sweep", SWEEP_ARGS, "out=x.json"),
])
def test_unknown_config_key_exits_2(capsys, command, args, key):
    code, out, err = run_cli(capsys, command, *args, key)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert key.partition("=")[0] in error["message"]


@pytest.mark.parametrize("window", ["80:20", "20:20", "nan:inf"])
def test_empty_or_nan_fit_window_exits_2(capsys, window):
    code, out, err = run_cli(capsys, "sweep", *SWEEP_ARGS,
                             f"sweep.window={window}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "window" in error["message"]


@pytest.fixture
def no_solves(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a spectrum was solved")

    monkeypatch.setattr(spectra, "pipeline_spectrum", forbidden)
    monkeypatch.setattr(asymptotics, "pipeline_spectrum", forbidden)


@pytest.mark.parametrize("args", [
    # Three lattice blocks: one point short of a two-term fit.
    ["mode=lattice", "gamma.k_fermi=1.5", "omega.shape=interval",
     "omega.intervals=0:1", "sweep.L=2000,4000,8000"],
    # A window past the whole grid.
    [*LATTICE_ARGS, "sweep.L=10:100:5", "sweep.window=200:300"],
    # Five L values that round to three block sizes.
    [*LATTICE_ARGS, "sweep.L=10,10.2,20,20.3,30"],
], ids=["three-points", "window-past-grid", "lattice-rounding"])
def test_unfittable_sweep_exits_2_before_solving(capsys, no_solves, args):
    code, out, err = run_cli(capsys, "sweep", *args)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "the fit needs at least 4" in error["message"]


@pytest.mark.parametrize("command, override", [
    ("entropy", "alpha="),
    ("entropy", "alpha=,"),
    ("functional", "functional.alphas="),
])
def test_empty_order_list_exits_2(capsys, no_solves, command, override):
    args = LATTICE_ARGS if command == "entropy" else []
    code, out, err = run_cli(capsys, command, *args, override)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert override.partition("=")[0] in error["message"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--jobs", jobs, *SWEEP_ARGS])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_2_exits_2(capsys):
    # Sweeps run serially; 1 is the only --jobs value.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--jobs", "2", *SWEEP_ARGS])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


def test_jobs_1_writes_the_record_of_no_flag(tmp_path):
    records = []
    for flags in ([], ["--jobs", "1"]):
        out = str(tmp_path / f"sweep{len(flags)}.json")
        assert main(["sweep", *flags, "--out", out, *SWEEP_ARGS,
                     "alpha=0.5,1,2"]) == 0
        with open(out) as handle:
            records.append(without_wall_times(json.load(handle)))
    assert records[0] == records[1]
    assert len(records[0]["rows"]) == 12


@pytest.mark.parametrize("command, flag", [
    ("entropy", ["--jobs", "8"]),
    ("entropy", ["--seed", "1"]),
    ("sweep", ["--seed", "1"]),
    ("jcoeff", ["--csv", "x.csv"]),
    ("jcoeff", ["--jobs", "2"]),
    ("functional", ["--csv", "x.csv"]),
    ("functional", ["--jobs", "2"]),
    ("functional", ["--seed", "1"]),
])
def test_flag_a_command_does_not_read_exits_2(capsys, tmp_path, monkeypatch,
                                              command, flag):
    monkeypatch.chdir(tmp_path)
    args = {"entropy": [*LATTICE_ARGS, "entropy.L=20"], "sweep": SWEEP_ARGS,
            "jcoeff": BOX_PAIR, "functional": []}[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *flag, *args])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err
    assert list(tmp_path.iterdir()) == []


INTERVAL_PAIR = ["gamma.k_fermi=1", "omega.shape=interval",
                 "omega.intervals=0:1"]
DISK_IN_SQUARE = ["gamma.shape=ball", "gamma.center=0,0", "gamma.radius=1",
                  "omega.shape=box", "omega.bounds=0:1,0:1"]
OMEGA_BALL_1D = ["gamma.k_fermi=1", *OMEGA_SPELLINGS["ball"]]


@pytest.mark.parametrize("command, args, override", [
    ("entropy", INTERVAL_PAIR, "gamma.k_fermi=inf"),
    ("entropy", INTERVAL_PAIR, "gamma.k_fermi=nan"),
    ("entropy", INTERVAL_PAIR, "gamma.k_fermi=-1"),
    ("entropy", INTERVAL_PAIR, "omega.intervals=0:inf"),
    ("entropy", DISK_IN_SQUARE, "gamma.radius=inf"),
    ("entropy", DISK_IN_SQUARE, "gamma.center=0,nan"),
    ("entropy", BOX_PAIR, "gamma.bounds=-1:1,-1:inf"),
    ("jcoeff", DISK_IN_SQUARE, "gamma.radius=inf"),
    ("jcoeff", BOX_PAIR, "gamma.bounds=-1:1,-1:inf"),
    ("jcoeff", BOX_PAIR, "omega.bounds=0:1,-inf:1"),
    ("entropy", OMEGA_BALL_1D, "omega.radius=inf"),
    ("entropy", OMEGA_BALL_1D, "omega.radius=0"),
    ("entropy", OMEGA_BALL_1D, "omega.center=nan"),
])
def test_non_finite_or_invalid_geometry_exits_2(capsys, no_solves, command,
                                                args, override):
    extra = ["entropy.L=5"] if command == "entropy" else []
    code, out, err = run_cli(capsys, command, *args, *extra, override)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(override.partition(".")[0] + ": ")


@pytest.mark.parametrize("command, args, key", [
    ("entropy", [*LATTICE_ARGS, "alpha=1,x"], "alpha"),
    ("entropy", [*INTERVAL_PAIR, "omega.intervals=0:a"], "omega.intervals"),
    ("entropy", [*INTERVAL_PAIR, "omega.intervals=,"], "omega.intervals"),
    ("entropy", ["gamma.k_fermi=1", "omega.shape=ball", "omega.radius=1"],
     "omega.center"),
    ("sweep", [*LATTICE_ARGS, "sweep.L=10:a:5"], "grid"),
], ids=["non-numeric-list", "non-numeric-pair", "empty-pairs",
        "ball-without-center", "non-numeric-grid-field"])
def test_malformed_config_value_exits_2(capsys, no_solves, command, args,
                                        key):
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert key in error["message"]


@pytest.fixture
def no_computes(monkeypatch, no_solves):
    """No spectrum, J, Monte Carlo estimate or I(h_alpha) is computed."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a number was computed")

    for name in ("widom_J", "widom_J_monte_carlo", "entropy_log_coefficient",
                 "entropy_log_coefficient_dilog"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize("command, args, unread", [
    ("entropy", [*LATTICE_ARGS, "sweep.L=10:100:5"], "sweep.L"),
    ("entropy", [*LATTICE_ARGS, "sweep.window=5:1"], "sweep.window"),
    # k_fermi is the whole momentum region: no shape key is read.
    ("entropy", [*INTERVAL_PAIR, "gamma.shape=ball"], "gamma.shape"),
    ("sweep", [*SWEEP_ARGS, "entropy.L=10"], "entropy.L"),
    ("jcoeff", [*BOX_PAIR, "alpha=1"], "alpha"),
    ("jcoeff", [*BOX_PAIR, "mode=lattice"], "mode"),
    ("jcoeff", [*DISK_IN_SQUARE, "alpha=-1", "disc.budget=-1",
                "entropy.L=-1"], "alpha, disc.budget, entropy.L"),
    ("functional", ["alpha=1"], "alpha"),
    ("functional", ["alpha=-3", "mode=bogus"], "alpha, mode"),
], ids=["entropy-sweep.L", "entropy-sweep.window", "entropy-gamma.shape",
        "sweep-entropy.L", "jcoeff-alpha", "jcoeff-mode", "jcoeff-three",
        "functional-alpha", "functional-two"])
def test_unread_key_exits_2_before_computing(capsys, no_computes, command,
                                             args, unread):
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert error["message"] == (f"{unread}: not read by {command} "
                                "for this input")


def test_entropy_unit_cube_stores_axis_entries_only(capsys, monkeypatch):
    # k_F = 1 on the unit cube at L = 400: each axis is a prolate basis
    # of ceil(1.5 c) + 40 = 340 degrees (c = 200), so the spectrum counts
    # 340^3 = 3.9e7 eigenvalues, but every axis stores its exact 0s and
    # 1s as one entry each and the product stores far fewer.
    stored = []
    original = asymptotics.pipeline_spectrum

    def recording(*args):
        spectrum, realized_L, mode = original(*args)
        stored.append(spectrum.values.size)
        return spectrum, realized_L, mode

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", recording)
    record = run_json(capsys, "entropy",
                      "gamma.shape=box", "gamma.bounds=-1:1,-1:1,-1:1",
                      "omega.shape=box", "omega.bounds=0:1,0:1,0:1",
                      "entropy.L=400", "alpha=1")
    row, = record["rows"]
    assert (row["mode"], row["n"]) == ("tensor_box", 340 ** 3)
    assert row["S"] > 0.0
    assert len(stored) == 1 and stored[0] < 300_000


DISK_PAIR = ["gamma.shape=ball", "gamma.center=0,0", "gamma.radius=1",
             "omega.shape=ball", "omega.center=0,0", "omega.radius=1"]


@pytest.fixture
def no_sector_solves(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a radial sector was solved")

    monkeypatch.setattr(spectra, "_sector_eigenvalues", forbidden)


def test_radial_rule_over_budget_exits_3(capsys, no_sector_solves):
    # The largest L runs first: n_r = ceil(1.5 k R) + 20 = 32 at L = 8.
    code, out, err = run_cli(capsys, "sweep", *DISK_PAIR, "sweep.L=2:8:4",
                             "disc.budget=22")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert "32 radial nodes" in error["message"]
    assert "budget 22" in error["message"]


@pytest.mark.parametrize("pair, size", [
    (INTERVAL_PAIR, 115),
    (["gamma.shape=box", "gamma.bounds=-1:1,-1:1", "omega.shape=box",
      "omega.bounds=0:1,0:1"], 115),
])
def test_prolate_basis_over_budget_exits_3(capsys, monkeypatch, pair, size):
    def forbidden(*args):
        raise AssertionError("a prolate window was solved")

    monkeypatch.setattr(spectra, "_prolate_spectrum", forbidden)
    # The basis has ceil(1.5 c) + 40 = 115 degrees at c = 50 (L = 100).
    code, out, err = run_cli(capsys, "entropy", *pair, "entropy.L=100",
                             f"disc.budget={size - 1}")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert f"{size} Legendre degrees" in error["message"]
    assert f"budget {size - 1}" in error["message"]


@pytest.mark.parametrize("args, builders, message", [
    # A 2.5e8-node rule on two intervals, which auto sends to Nystrom:
    # 1.9 GiB of nodes alone.
    (["entropy", "gamma.k_fermi=100000", "omega.shape=interval",
      "omega.intervals=0:0.5,1:1.5", "entropy.L=2000"],
     [(discretize, "_gauss_panels")],
     "2.54648e+08 Nystrom nodes, over the budget 6000"),
    # A 20696 x 20696 grid on the square.
    (["entropy", "gamma.shape=ball", "gamma.center=0,0", "gamma.radius=1",
      "omega.shape=box", "omega.bounds=0:1,0:1", "entropy.L=1e4"],
     [(discretize, "_gauss_panels"), (np, "meshgrid")],
     "4.28324e+08 Nystrom nodes, over the budget 6000"),
    (["entropy", "gamma.k_fermi=1e300", "omega.shape=interval",
      "omega.intervals=0:1", "entropy.L=1e300"],
     [(spectra, "_prolate_spectrum")],
     "inf Legendre degrees, over the budget 6000"),
    (["entropy", "gamma.shape=ball", "gamma.center=0,0", "gamma.radius=1e300",
      "omega.shape=ball", "omega.center=0,0", "omega.radius=1",
      "entropy.L=1e300"],
     [(spectra, "_radial_spectrum")],
     "inf radial nodes, over the budget 6000"),
    (["entropy", "mode=lattice", "gamma.k_fermi=1", "omega.shape=interval",
      "omega.intervals=0:1e10", "entropy.L=1e300"],
     [(spectra, "_lattice_spectrum")],
     "inf lattice sites, over the budget 100000"),
    (["entropy", "mode=lattice", "gamma.k_fermi=1", "omega.shape=interval",
      "omega.intervals=0:1", "entropy.L=1e300"],
     [(spectra, "_lattice_spectrum")],
     "1e+300 lattice sites, over the budget 100000"),
], ids=["nystrom-interval", "nystrom-square", "prolate", "radial",
        "lattice-inf", "lattice"])
def test_oversized_request_exits_3_before_building(capsys, monkeypatch, args,
                                                   builders, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oversized request was built")

    for module, name in builders:
        monkeypatch.setattr(module, name, forbidden)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert f"would need {message}" in error["message"]


def test_lattice_sweep_past_the_budget_exits_3(capsys, monkeypatch):
    # L = 1e30 was cast to a negative site count and silently dropped,
    # then was reached only after every smaller block was solved.  The
    # largest L runs first, so nothing is solved.
    def forbidden(*args):
        raise AssertionError("a lattice block was solved")

    monkeypatch.setattr(spectra, "_lattice_spectrum", forbidden)
    code, out, err = run_cli(capsys, "sweep", "mode=lattice",
                             "gamma.k_fermi=1", "omega.shape=interval",
                             "omega.intervals=0:1",
                             "sweep.L=100,200,300,400,1e30")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert "would need 1e+30 lattice sites, over the budget 100000" \
        in error["message"]


def test_lattice_sweep_over_disc_budget_exits_3(capsys, solves):
    # disc.budget caps lattice blocks too; the largest L runs first, so
    # no block is solved.
    code, out, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                             "sweep.L=100,200,300,400", "disc.budget=100")
    assert (code, out, solves) == (3, "", [])
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert "would need 400 lattice sites, over the budget 100" \
        in error["message"]


def test_lattice_sweep_under_half_a_site_exits_2(capsys, no_solves):
    code, out, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                             "sweep.L=100,0.2,200,0.3,300,400")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "sweep.L: L=0.2 rounds to a lattice block of 0 sites" \
        in error["message"]


def test_lattice_entropy_under_half_a_site_exits_3(capsys):
    code, out, err = run_cli(capsys, "entropy", *LATTICE_ARGS, "entropy.L=0.4")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "DiscretizationError"
    assert "block length must be >= 1, got 0" in error["message"]


def test_radial_sector_bound_exits_3(capsys, monkeypatch):
    # With no excess allowed, the sectors must decay by l = kR = 4.
    monkeypatch.setattr(spectra, "SECTOR_EXCESS", 0.0)
    code, out, err = run_cli(capsys, "entropy", *DISK_PAIR, "entropy.L=4")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "SpectralViolationError"
    assert "radial sector l=4" in error["message"]


def test_overrides_after_a_flag_equal_overrides_before_it(capsys,
                                                          tmp_path):
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    assert main(["sweep", *INTERVAL_PAIR, "--out", str(first),
                 "sweep.L=10:100:5"]) == 0
    assert main(["sweep", *INTERVAL_PAIR, "sweep.L=10:100:5",
                 "--out", str(last)]) == 0
    capsys.readouterr()
    assert without_wall_times(json.loads(first.read_text())) \
        == without_wall_times(json.loads(last.read_text()))


def test_later_override_after_a_flag_wins(capsys, tmp_path):
    record = run_json(capsys, "entropy", *LATTICE_ARGS, "entropy.L=30",
                      "--csv", str(tmp_path / "rows.csv"), "entropy.L=40")
    assert [row["L"] for row in record["rows"]] == [40.0]


@pytest.mark.parametrize("argv", [
    ["sweep", *SWEEP_ARGS, "--bogus"],
    ["sweep", "--out", "x.json", *SWEEP_ARGS, "--bogus", "alpha=1"],
    ["validate", "alpha=1"],
], ids=["unknown-flag", "unknown-flag-between-overrides",
        "override-on-validate"])
def test_unknown_arguments_around_overrides_exit_2(capsys, tmp_path,
                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "fermient" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    # The child imports fermient from wherever this process does (an
    # install, PYTHONPATH, or pytest's own pythonpath setting).
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "fermient", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "fermient" in proc.stdout


def test_closed_stdout_finishes_quietly(tmp_path):
    # The read end is closed before the child starts, so the record's
    # first write meets a broken pipe; the command still writes its CSV
    # and exits 0 without a traceback.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    csv = tmp_path / "rows.csv"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fermient", "entropy", "mode=lattice",
             "gamma.k_fermi=1", "omega.shape=interval", "omega.intervals=0:1",
             "entropy.L=400", "--csv", str(csv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert csv.read_text().count("\n") == 2


def test_validate_with_closed_stdout_writes_its_report(tmp_path):
    # As above, for validate's table: the command still writes --out.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    report = tmp_path / "validate.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fermient", "validate", "--out",
             str(report)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(report.read_text())["passed"] is True


def test_cli_import_leaves_scipy_integrate_unloaded():
    # No command calls scipy.integrate, which would also load
    # scipy.optimize, sparse and spatial; importing the CLI must not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = ("import sys, fermient.cli; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _run_fresh(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_jcoeff_and_functional_leave_scipy_unloaded(tmp_path):
    # Neither command solves a spectrum, so neither may load scipy; a
    # lattice entropy afterwards must load it, or the first check is
    # vacuous.
    out = str(tmp_path / "record.json")
    code = f"""
import json, sys
import fermient, fermient.cli
from fermient.cli import main
assert main(["jcoeff", "--out", {out!r}, "gamma.shape=ball",
             "gamma.center=0,0,0", "gamma.radius=1", "omega.shape=box",
             "omega.bounds=0:1,0:1,0:1"]) == 0
assert main(["functional", "--out", {out!r},
             "functional.alphas=0.25,1,inf"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
assert main(["entropy", "--out", {out!r}, "mode=lattice",
             "gamma.k_fermi=1", "omega.shape=interval",
             "omega.intervals=0:1", "entropy.L=8"]) == 0
print(json.dumps("scipy.linalg" in sys.modules))
"""
    loaded, after_entropy = _run_fresh(code).splitlines()
    assert json.loads(loaded) == []
    assert json.loads(after_entropy) is True


def test_validate_leaves_scipy_integrate_unloaded(tmp_path):
    # validate's kernel oracle runs a Gauss-Legendre rule, so of scipy it
    # loads scipy.linalg and scipy.special only; scipy.integrate would
    # bring in optimize, sparse and spatial.
    out = str(tmp_path / "validate.json")
    code = f"""
import json, sys
from fermient.cli import main
assert main(["validate", "--out", {out!r}]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""
    # validate prints its table first; the module list is the last line.
    loaded = set(json.loads(_run_fresh(code).splitlines()[-1]))
    assert {"scipy.linalg", "scipy.special"} <= loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize",
                         "scipy.sparse", "scipy.spatial"}


def test_lattice_entropy_loads_scipy_linalg_without_fft(tmp_path):
    # The Toeplitz products run on numpy.fft: scipy.linalg's tridiagonal
    # solver is the lattice route's only scipy call.
    out = str(tmp_path / "record.json")
    code = f"""
import json, sys
from fermient.cli import main
assert main(["entropy", "--out", {out!r}, "mode=lattice",
             "gamma.k_fermi=1", "omega.shape=interval",
             "omega.intervals=0:1", "entropy.L=2001"]) == 0
print(json.dumps(["scipy.linalg" in sys.modules, "scipy.fft" in sys.modules]))
"""
    assert json.loads(_run_fresh(code)) == [True, False]


# ---------------------------------------------------------------------------
# jcoeff
# ---------------------------------------------------------------------------

def test_jcoeff_interval_pair(capsys):
    record = run_json(capsys, "jcoeff",
                      "gamma.shape=interval", "gamma.intervals=-1:1",
                      "omega.shape=interval", "omega.intervals=0:1")
    assert record["j"]["value"] == 4.0
    assert record["j"]["agreement"] == 0.0


BALL3_PAIR = ("gamma.shape=ball", "gamma.center=0,0,0", "gamma.radius=1",
              "omega.shape=ball", "omega.center=0,0,0", "omega.radius=1")


def test_jcoeff_3d_resolution_over_the_limit_exits_3(capsys, monkeypatch):
    # At resolution 256 the ball/ball quadrature would need 1.7e10
    # surface node pairs; it must be refused before any pair block is
    # built.
    def forbidden(qa, qb):
        raise AssertionError("pair block built past the limit")

    monkeypatch.setattr(geometry, "_cosine_sum", forbidden)
    code, out, err = run_cli(capsys, "jcoeff", *BALL3_PAIR,
                             "jcoeff.resolution=256")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "computation"
    assert error["type"] == "GeometryError"
    assert "resolution 256" in error["message"]
    assert "largest resolution that fits is 105" in error["message"]


def test_jcoeff_3d_default_resolution_is_the_largest_fit(capsys,
                                                         monkeypatch):
    # A ball/ball rule pair has (2 res^2)^2 node pairs: under a limit of
    # 4 * 20^4 the default resolution is 20, not 256, and an explicit 21
    # is refused before any pair block is built.
    monkeypatch.setattr(geometry, "MAX_COSINE_PAIRS", 4 * 20 ** 4)
    resolutions = []
    cosine_sum = geometry._cosine_sum

    def counted(qa, qb):
        resolutions.append(len(qa))
        return cosine_sum(qa, qb)

    monkeypatch.setattr(geometry, "_cosine_sum", counted)
    record = run_json(capsys, "jcoeff", *BALL3_PAIR)
    assert "jcoeff.resolution" not in record["config"]
    # The quadrature at 20 and its companion at 10: 2 res^2 nodes each.
    assert resolutions == [2 * 20 ** 2, 2 * 10 ** 2]
    closed, quadrature, _ = record["j"]["methods"]
    assert abs(quadrature["value"] - closed["value"]) \
        <= quadrature["error_estimate"]

    resolutions.clear()
    code, out, err = run_cli(capsys, "jcoeff", *BALL3_PAIR,
                             "jcoeff.resolution=21")
    assert (code, out, resolutions) == (3, "", [])
    error = json.loads(err)["error"]
    assert (error["kind"], error["type"]) == ("computation", "GeometryError")
    assert error["message"].endswith("the largest resolution that fits "
                                     "is 20")


def test_jcoeff_3d_ball_cube_default_resolution(capsys):
    # The cube enters as its six faces, so the sphere rule at the
    # default resolution 256 (131072 nodes) fits.
    record = run_json(capsys, "jcoeff",
                      "gamma.shape=ball", "gamma.center=0,0,0",
                      "gamma.radius=1",
                      "omega.shape=box", "omega.bounds=0:1,0:1,0:1")
    methods = record["j"]["methods"]
    assert [m["method"] for m in methods] == [
        "closed_form", "quadrature", "monte_carlo"]
    for method in methods:
        assert abs(method["value"] - 3.0 / math.pi) <= method["error_estimate"]


def test_jcoeff_3d_box_ball_reads_the_closed_form(capsys):
    # J is symmetric, so a ball spatial region has the closed form too.
    record = run_json(capsys, "jcoeff",
                      "gamma.shape=box", "gamma.bounds=-1:1,-1:1,-1:1",
                      "omega.shape=ball", "omega.center=0,0,0",
                      "omega.radius=1", "jcoeff.resolution=64")
    methods = record["j"]["methods"]
    assert [m["method"] for m in methods] == [
        "closed_form", "quadrature", "monte_carlo"]
    assert record["j"]["value"] == pytest.approx(12.0 / math.pi, abs=1e-14)
    for method in methods:
        assert abs(method["value"] - 12.0 / math.pi) <= method["error_estimate"]


def test_jcoeff_huge_disk_has_a_finite_closed_form(capsys):
    # p_fermi = 1e300 squared overflows a float; J itself does not.
    record = run_json(capsys, "jcoeff", *DISK_IN_SQUARE, "gamma.radius=1e300",
                      "jcoeff.resolution=32")
    methods = {m["method"]: m for m in record["j"]["methods"]}
    assert methods["closed_form"]["value"] == pytest.approx(
        8.0e300 / math.pi, rel=1e-14)
    for method in methods.values():
        assert abs(method["value"] - 8.0e300 / math.pi) \
            <= method["error_estimate"]


def test_jcoeff_infinite_J_exits_3(capsys):
    # (1e200)^2 / (4 pi) is past the float range, so the closed form is
    # inf; that is a computation error, not a record.
    code, out, err = run_cli(capsys, "jcoeff",
                             "gamma.shape=ball", "gamma.center=0,0,0",
                             "gamma.radius=1e200", "omega.shape=box",
                             "omega.bounds=0:1,0:1,0:1")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert (error["kind"], error["type"]) == ("computation", "GeometryError")
    assert "closed_form is inf" in error["message"]


@pytest.mark.parametrize("argv, key", [
    (["jcoeff.resolution=0", *DISK_IN_SQUARE], "jcoeff.resolution"),
    (["jcoeff.resolution=-3", *DISK_IN_SQUARE], "jcoeff.resolution"),
    (["--seed", "-1", *DISK_IN_SQUARE], "seed"),
    # A d = 1 J has no Monte Carlo estimate, so a seed would be ignored.
    pytest.param(["--seed", "1", *INTERVAL_PAIR], "seed",
                 id="interval-seed-flag"),
    pytest.param(["seed=7", *INTERVAL_PAIR], "seed", id="interval-seed-key"),
])
def test_jcoeff_bad_resolution_or_seed_exits_2(capsys, argv, key):
    code, out, err = run_cli(capsys, "jcoeff", *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(key)


@pytest.mark.parametrize("pair", [BOX_PAIR, INTERVAL_PAIR],
                         ids=["box-box", "interval"])
def test_jcoeff_resolution_without_a_ball_exits_2(capsys, pair):
    # Only a ball boundary has a surface rule; any other pair's J is
    # exact, so a resolution for it would be silently ignored.
    code, out, err = run_cli(capsys, "jcoeff", *pair, "jcoeff.resolution=5")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith("jcoeff.resolution")


def test_jcoeff_square_pair_all_methods(capsys):
    # A polytope pair's quadrature would be its face-pair sum again.
    record = run_json(capsys, "jcoeff", "--seed", "7",
                      "gamma.shape=box", "gamma.bounds=-1:1,-1:1",
                      "omega.shape=box", "omega.bounds=0:1,0:1")
    block = record["j"]
    assert block["value"] == pytest.approx(8.0 / math.pi, abs=1e-12)
    assert [entry["method"] for entry in block["methods"]] == [
        "face_pair_exact", "monte_carlo"]
    assert block["agreement"] < 0.05


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------

def test_functional_default_grid(capsys):
    record = run_json(capsys, "functional")
    rows = record["functional_rows"]
    assert [row["alpha"] for row in rows] == [0.25, 0.5, 1.0, 1.5, 2.0,
                                              4.0, 10.0]
    for row in rows:
        alpha = row["alpha"]
        expected = (1.0 + alpha) / (24.0 * alpha)
        assert row["closed_form"] == pytest.approx(expected, abs=1e-15)
        assert row["abs_dev"] < 1e-8
        assert row["dilog_abs_dev"] < 1e-10
        assert "converged" not in row
    assert set(record) == {"schema_version", "command", "config",
                           "functional_rows"}


def test_functional_unconverged_order_exits_3(capsys, tmp_path):
    # The fixed rule converges from about alpha = 0.035 (A1 pins the
    # orders 0.25 ... 10 and inf); at 0.001 its last value is 52% off
    # the closed form.
    out = tmp_path / "functional.json"
    code, stdout, err = run_cli(capsys, "functional", "--out", str(out),
                                "functional.alphas=1,0.001")
    assert (code, stdout) == (3, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["kind"], error["type"]) == ("computation",
                                              "DiscretizationError")
    assert error["message"].startswith("I(h_alpha) at alpha=0.001: ")
    assert not out.exists()


def test_functional_dilog_route_off_the_closed_form_exits_3(capsys,
                                                           tmp_path):
    # The dilogarithm route loses digits at both ends: 4.3e-12 at
    # alpha = 0.04, 6.5e-8 at 50 and 4.1e-5 at 100, against at most
    # 1.1e-13 from 0.05 to 20.
    out = tmp_path / "functional.json"
    code, stdout, err = run_cli(capsys, "functional", "--out", str(out),
                                "functional.alphas=1,100")
    assert (code, stdout) == (3, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["kind"], error["type"]) == ("computation",
                                              "DiscretizationError")
    assert re.fullmatch(r"I\(h_alpha\) at alpha=100: the dilogarithm route "
                        r"is 4\.\d+e-05 off the closed form, over 1e-12",
                        error["message"]), error["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_record_has_one_fit_shape(capsys):
    # One order or several, the fits are a list; no second copy of the
    # fit and no self-test flag ride along.
    record = run_json(capsys, "sweep", *LATTICE_ARGS,
                      "alpha=1", "sweep.L=40:160:4")
    assert len(record["fits"]) == 1
    assert record["fits"][0]["alpha"] == 1.0
    assert "fit" not in record and "self_test" not in record


def test_sweep_lattice_writes_fit_and_cleans_partial(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, _, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                           "alpha=1", "sweep.L=40:160:4",
                           "--out", str(out))
    assert code == 0, err
    assert not (tmp_path / "sweep.json.partial").exists()
    record = json.loads(out.read_text())
    assert len(record["rows"]) == 4
    assert [row["L"] for row in record["rows"]] == [40.0, 63.0, 101.0, 160.0]
    (fit,) = record["fits"]
    assert fit["theory"] == pytest.approx(1.0 / 3.0)
    # Small blocks, so only loose agreement is expected here.
    assert abs(fit["rel_dev"]) < 0.10
    assert record["j"]["value"] == 4.0


def test_sweep_resumes_from_partial_rows(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "gamma.k_fermi = 1.5707963267948966\n"
        "omega.shape = interval\n"
        "omega.intervals = 0:1\n"
        "mode = lattice\n"
        "alpha = 1\n"
        "sweep.L = 40:160:4\n")
    out = tmp_path / "sweep.json"
    digest = config_hash(load_config(cfg))
    seeded = {"alpha": 1.0, "L": 63.0, "n": 63, "S": 99.0,
              "clamp_count": 0, "max_violation": 0.0, "mode": "lattice"}
    append_partial_row(str(out) + ".partial", seeded, digest)

    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--out", str(out))
    assert code == 0, err
    record = json.loads(out.read_text())
    by_L = {row["L"]: row for row in record["rows"]}
    assert by_L[63.0]["S"] == 99.0          # reused, not recomputed
    assert 0.0 < by_L[40.0]["S"] < 5.0      # freshly computed
    assert not (tmp_path / "sweep.json.partial").exists()


def test_sweep_computes_J_once_for_every_order(capsys, monkeypatch):
    calls = []
    exact = geometry.widom_J

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    # Every fermient module that imported it by name calls the counter.
    for name, module in list(sys.modules.items()):
        if name.startswith("fermient") \
                and getattr(module, "widom_J", None) is exact:
            monkeypatch.setattr(module, "widom_J", counted)
    record = run_json(capsys, "sweep", *LATTICE_ARGS, "alpha=0.5,1,2",
                      "sweep.L=40:160:4")
    assert len(calls) == 1
    J = record["j"]["value"]
    assert [fit["theory"] for fit in record["fits"]] == [
        (1.0 + alpha) / (24.0 * alpha) * J for alpha in (0.5, 1.0, 2.0)]


def test_sweep_solves_each_L_once_for_all_orders(capsys, tmp_path, solves):
    orders = ["0.25", "0.5", "1", "2", "inf"]
    out = tmp_path / "multi.json"
    code, _, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                           "alpha=" + ",".join(orders), "sweep.L=40:160:4",
                           "--out", str(out))
    assert code == 0, err
    assert solves == [160, 101, 63, 40]      # largest L first
    record = json.loads(out.read_text())
    assert len(record["rows"]) == 4 * len(orders)
    multi = {(row["alpha"], row["L"]): row["S"] for row in record["rows"]}
    for alpha in orders:
        single = run_json(capsys, "sweep", *LATTICE_ARGS, f"alpha={alpha}",
                          "sweep.L=40:160:4")
        for row in single["rows"]:
            assert multi[(row["alpha"], row["L"])] == row["S"]
        assert single["fits"][0] in record["fits"]


@pytest.mark.parametrize("gamma_bounds, omega_bounds, solves_per_L", [
    ("-1:1,-1:1", "0:1,0:1", 1),
    ("-1:1,-1:1", "0:1,0:2", 2),
    ("-1:1,-1:1,-1:1", "0:1,0:1,0:1", 1),
], ids=["square", "rectangle", "cube"])
def test_sweep_tensor_box_solves_each_distinct_axis_once(
        capsys, monkeypatch, gamma_bounds, omega_bounds, solves_per_L):
    # An axis spectrum depends only on c = |gamma_i| L |omega_i| / 4:
    # the square and the cube have one c per L, the rectangle two.
    axes = []
    original = spectra._prolate_spectrum

    def counting(c, size):
        axes.append(c)
        return original(c, size)

    monkeypatch.setattr(spectra, "_prolate_spectrum", counting)
    record = run_json(capsys, "sweep",
                      "gamma.shape=box", f"gamma.bounds={gamma_bounds}",
                      "omega.shape=box", f"omega.bounds={omega_bounds}",
                      "mode=tensor_box", "alpha=0.5,1,2",
                      "sweep.L=10:40:4")
    assert len(axes) == solves_per_L * 4
    assert len(record["rows"]) == 3 * 4


def test_sweep_resumes_multi_order_partial_rows(capsys, tmp_path, solves):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "gamma.k_fermi = 1.5707963267948966\n"
        "omega.shape = interval\n"
        "omega.intervals = 0:1\n"
        "mode = lattice\n"
        "alpha = 0.5,1,2\n"
        "sweep.L = 40:160:4\n")
    full = tmp_path / "full.json"
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--out", str(full))
    assert code == 0, err
    uninterrupted = json.loads(full.read_text())

    # The interrupted run had finished every order at L = 63 and only
    # alpha = 1 at L = 101; partial rows stay one line per (alpha, L).
    resumed = tmp_path / "resumed.json"
    digest = config_hash(load_config(cfg))
    saved = [row for row in uninterrupted["rows"] if row["L"] == 63.0
             or (row["L"] == 101.0 and row["alpha"] == 1.0)]
    for row in saved:
        append_partial_row(str(resumed) + ".partial", row, digest)
    solves.clear()
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--out", str(resumed))
    assert code == 0, err
    assert solves == [160, 101, 40]
    record = json.loads(resumed.read_text())
    # Loaded rows keep the wall time they were saved with.
    assert [row for row in record["rows"] if row in saved] == saved
    assert without_wall_times(record) == without_wall_times(uninterrupted)
    assert not (tmp_path / "resumed.json.partial").exists()


def test_sweep_seed_exits_2_before_solving(capsys, tmp_path, no_solves):
    # No sweep reads a seed, so none reaches a record or the resume hash.
    out = tmp_path / "sweep.json"
    code, stdout, err = run_cli(capsys, "sweep", "--out", str(out),
                                *SWEEP_ARGS, "alpha=1", "seed=1")
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert error["message"] == "seed: not read by sweep for this input"
    assert list(tmp_path.iterdir()) == []


def test_sweep_persists_partial_rows_on_failure(capsys, tmp_path,
                                                monkeypatch):
    # The largest L runs first, so the failure is injected at the
    # smallest: the rows solved before it are persisted.
    out = tmp_path / "sweep.json"
    argv = ["sweep", *LATTICE_ARGS, "alpha=1", "sweep.L=100,200,300,400",
            "--out", str(out)]
    original = asymptotics.pipeline_spectrum
    solved, interrupted = [], [True]

    def failing(gamma, omega, L, config):
        if interrupted and L == 100.0:
            raise discretize.BudgetError("would need more, over the budget")
        solved.append(L)
        return original(gamma, omega, L, config)

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", failing)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "budget" in json.loads(err)["error"]["message"]
    assert not out.exists()
    partial = (tmp_path / "sweep.json.partial").read_text().splitlines()
    saved = [json.loads(line)["L"] for line in partial]
    assert saved == [400.0, 300.0, 200.0]

    interrupted.clear()
    solved.clear()
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert solved == [100.0]
    assert len(json.loads(out.read_text())["rows"]) == 4
    assert not (tmp_path / "sweep.json.partial").exists()


def test_sweep_csv_rectifies_by_dimension(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    record = run_json(capsys, "sweep", *BOX_PAIR, "alpha=1,2",
                      "sweep.L=10:40:4", "--csv", str(csv_path))
    with open(csv_path, newline="") as handle:
        cells = list(csv.DictReader(handle))
    assert len(cells) == len(record["rows"]) == 2 * 4
    for cell, row in zip(cells, record["rows"]):
        assert float(cell["S"]) == row["S"]
        assert float(cell["S_scaled"]) == row["S"] / row["L"]   # d = 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_failure_exits_4(capsys, tmp_path, monkeypatch):
    def failing():
        return False, "forced failure"

    monkeypatch.setattr(validate, "ALL_CHECKS", tuple(
        (name, failing if name == "nystrom_trace" else check)
        for name, check in validate.ALL_CHECKS))
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(capsys, "validate", "--out", str(out))
    assert code == 4
    assert err.splitlines() == ["failed: nystrom_trace"]
    *table, summary = stdout.splitlines()
    failed = [line.split() for line in table if "FAIL" in line]
    assert [(words[0], words[-2:]) for words in failed] \
        == [("nystrom_trace", ["forced", "failure"])]
    assert summary == "13/14 checks passed"
    assert json.loads(out.read_text())["passed"] is False


def test_validate_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "validate", "--out", str(out))
    assert code == 0
    assert "checks passed" in stdout
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 14
    assert all(check["passed"] for check in report["checks"])
