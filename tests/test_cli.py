"""End-to-end command line tests, run in process through main(argv)."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fermient import asymptotics, geometry, spectra
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
    """Sizes of the matrices passed to spectra.eigenvalues, in call order."""
    sizes = []
    original = spectra.eigenvalues

    def counting(op, *args, **kwargs):
        spectrum = original(op, *args, **kwargs)
        sizes.append(len(spectrum))
        return spectrum

    monkeypatch.setattr(spectra, "eigenvalues", counting)
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
    code, _, err = run_cli(
        capsys, "entropy",
        "gamma.k_fermi=1.0",
        "omega.shape=box", "omega.bounds=0:1,0:1")
    assert code == 2
    assert "d=1" in json.loads(err)["error"]["message"]


def test_malformed_override_exits_2(capsys):
    code, _, err = run_cli(capsys, "entropy", "gamma.k_fermi")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"


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
    code, out, err = run_cli(capsys, "entropy", "gamma.k_fermi=1",
                             "omega.shape=interval", "omega.intervals=0:1",
                             "entropy.L=10", f"disc.nodes_per_unit={value}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "disc.nodes_per_unit" in error["message"]


@pytest.mark.parametrize("key, value", [
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
    # n_r = ceil(1.5 k R) + 20 = 23 already at L = 2.
    code, out, err = run_cli(capsys, "sweep", *DISK_PAIR, "sweep.L=2:8:4",
                             "disc.budget=22")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert "n_r=23" in error["message"]
    assert "budget 22" in error["message"]


def test_radial_nodes_per_unit_under_nyquist_guard_exits_3(
        capsys, no_sector_solves):
    code, out, err = run_cli(capsys, "entropy", *DISK_PAIR, "entropy.L=4",
                             "disc.nodes_per_unit=0.6")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DiscretizationError"
    assert "sampling guard" in error["message"]


INTERVAL_PAIR = ["gamma.k_fermi=1", "omega.shape=interval",
                 "omega.intervals=0:1"]


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


def test_radial_sector_bound_exits_3(capsys, monkeypatch):
    # With no excess allowed, the sectors must decay by l = kR = 4.
    monkeypatch.setattr(spectra, "SECTOR_EXCESS", 0.0)
    code, out, err = run_cli(capsys, "entropy", *DISK_PAIR, "entropy.L=4")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "SpectralViolationError"
    assert "radial sector l=4" in error["message"]


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


# ---------------------------------------------------------------------------
# jcoeff
# ---------------------------------------------------------------------------

def test_jcoeff_interval_pair(capsys):
    record = run_json(capsys, "jcoeff",
                      "gamma.shape=interval", "gamma.intervals=-1:1",
                      "omega.shape=interval", "omega.intervals=0:1")
    assert record["j"]["value"] == 4.0
    assert record["j"]["agreement"] == 0.0


def test_jcoeff_3d_default_resolution_exits_3(capsys, monkeypatch):
    # At the default resolution 256 the ball/ball quadrature would need
    # 1.7e10 surface node pairs; it must be refused before any pair
    # block is built.
    def forbidden(qa, qb):
        raise AssertionError("pair block built past the limit")

    monkeypatch.setattr(geometry, "_cosine_sum", forbidden)
    code, out, err = run_cli(capsys, "jcoeff",
                             "gamma.shape=ball", "gamma.center=0,0,0",
                             "gamma.radius=1",
                             "omega.shape=ball", "omega.center=0,0,0",
                             "omega.radius=1")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "computation"
    assert error["type"] == "GeometryError"
    assert "resolution 256" in error["message"]
    assert "largest resolution that fits is 105" in error["message"]


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


@pytest.mark.parametrize("argv, key", [
    (["jcoeff.resolution=0"], "jcoeff.resolution"),
    (["jcoeff.resolution=-3"], "jcoeff.resolution"),
    (["--seed", "-1"], "seed"),
])
def test_jcoeff_bad_resolution_or_seed_exits_2(capsys, argv, key):
    code, out, err = run_cli(capsys, "jcoeff", *argv,
                             "gamma.shape=box", "gamma.bounds=-1:1,-1:1",
                             "omega.shape=box", "omega.bounds=0:1,0:1")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(key)


def test_jcoeff_square_pair_all_methods(capsys):
    record = run_json(capsys, "jcoeff", "--seed", "7",
                      "gamma.shape=box", "gamma.bounds=-1:1,-1:1",
                      "omega.shape=box", "omega.bounds=0:1,0:1")
    block = record["j"]
    assert block["value"] == pytest.approx(8.0 / math.pi, abs=1e-12)
    methods = {entry["method"] for entry in block["methods"]}
    assert {"face_pair_exact", "quadrature", "monte_carlo"} <= methods
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
        assert row["converged"]
    checks = record["checks"]
    assert abs(checks["linear_function_value"]) < 1e-12
    assert checks["dilog_limit"]["abs_dev"] < 2e-5


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_self_test_recovers_theory(capsys):
    record = run_json(capsys, "sweep", "--self-test",
                      "gamma.shape=interval", "gamma.intervals=-1:1",
                      "omega.shape=interval", "omega.intervals=0:1",
                      "alpha=1", "sweep.L=20:200:8")
    assert record["self_test"] is True
    fit = record["fit"]
    assert fit["rel_dev"] < 1e-10
    assert fit["theory"] == pytest.approx(1.0 / 3.0)
    assert len(record["rows"]) == 8
    assert record["j"]["value"] == 4.0


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
    fit = record["fit"]
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


def test_sweep_solves_each_L_once_for_all_orders(capsys, tmp_path, solves):
    orders = ["0.25", "0.5", "1", "2", "inf"]
    out = tmp_path / "multi.json"
    code, _, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                           "alpha=" + ",".join(orders), "sweep.L=40:160:4",
                           "--out", str(out))
    assert code == 0, err
    assert solves == [40, 63, 101, 160]
    record = json.loads(out.read_text())
    assert len(record["rows"]) == 4 * len(orders)
    multi = {(row["alpha"], row["L"]): row["S"] for row in record["rows"]}
    for alpha in orders:
        single = run_json(capsys, "sweep", *LATTICE_ARGS, f"alpha={alpha}",
                          "sweep.L=40:160:4")
        for row in single["rows"]:
            assert multi[(row["alpha"], row["L"])] == row["S"]
        assert single["fit"] in record["fits"]


def test_sweep_tensor_box_solves_two_axes_per_L(capsys, monkeypatch):
    axes = []
    original = spectra._prolate_spectrum

    def counting(c, size):
        axes.append(c)
        return original(c, size)

    monkeypatch.setattr(spectra, "_prolate_spectrum", counting)
    record = run_json(capsys, "sweep",
                      "gamma.shape=box", "gamma.bounds=-1:1,-1:1",
                      "omega.shape=box", "omega.bounds=0:1,0:1",
                      "mode=tensor_box", "alpha=0.5,1,2",
                      "sweep.L=10:40:4")
    assert len(axes) == 2 * 4
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
    assert solves == [40, 101, 160]
    record = json.loads(resumed.read_text())
    # Loaded rows keep the wall time they were saved with.
    assert [row for row in record["rows"] if row in saved] == saved
    assert without_wall_times(record) == without_wall_times(uninterrupted)
    assert not (tmp_path / "resumed.json.partial").exists()


def test_sweep_resume_ignores_seed(capsys, tmp_path, monkeypatch):
    out = tmp_path / "sweep.json"
    argv = ["sweep", *LATTICE_ARGS, "alpha=1", "sweep.L=40:160:4",
            "--out", str(out)]
    original = asymptotics.pipeline_spectrum
    solved = []

    def interrupted(gamma, omega, L, config):
        if L > 150.0:
            raise DiscretizationError("interrupted")
        return original(gamma, omega, L, config)

    def spying(gamma, omega, L, config):
        solved.append(L)
        return original(gamma, omega, L, config)

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", interrupted)
    code, _, _ = run_cli(capsys, *argv, "--seed", "1")
    assert code == 3
    partial = (tmp_path / "sweep.json.partial").read_text().splitlines()
    assert [json.loads(line)["L"] for line in partial] == [40.0, 63.0, 101.0]

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", spying)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert solved == [160.0]
    assert len(json.loads(out.read_text())["rows"]) == 4


def test_sweep_persists_partial_rows_on_failure(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, _, err = run_cli(capsys, "sweep", *LATTICE_ARGS,
                           "alpha=1",
                           f"sweep.L=100,200,300,{DEFAULT_LATTICE_BUDGET + 1}",
                           "--out", str(out))
    assert code == 3
    assert "budget" in json.loads(err)["error"]["message"]
    assert not out.exists()
    partial = (tmp_path / "sweep.json.partial").read_text().splitlines()
    saved = [json.loads(line)["L"] for line in partial]
    assert saved == [100.0, 200.0, 300.0]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "validate", "--out", str(out))
    assert code == 0
    assert "checks passed" in stdout
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 10
    assert all(check["passed"] for check in report["checks"])
