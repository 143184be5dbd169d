"""Config parsing, result records, and partial-row persistence."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fermient import config as config_module
from fermient.config import (
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    alphas_from_config,
    domain_from_config,
    grid_from_config,
    load_config,
    parse_config_text,
    pipeline_config_from,
    serialize_config,
    window_from_config,
)
from fermient.geometry import Ball, Box, ConvexPolygon, IntervalUnion
from fermient.records import (
    append_partial_row,
    config_hash,
    entropy_result,
    entropy_row,
    fit_block,
    j_block,
    load_partial_rows,
    make_record,
    write_csv,
    write_json,
)
from fermient.asymptotics import fit_scaling, sweep, synthetic_sweep
from fermient.geometry import widom_J, interval
from fermient.spectra import EntropyResult, PipelineConfig


# ---------------------------------------------------------------------------
# Config text format
# ---------------------------------------------------------------------------

def test_parse_basic():
    config = parse_config_text(
        "# a comment\n"
        "\n"
        "alpha = 1.5\n"
        "gamma.k_fermi = 1.0\n"
        "sweep.L = 20:200:8\n")
    assert config.get("alpha") == "1.5"
    assert config.get_float("alpha") == 1.5
    assert "gamma.k_fermi" in config
    assert config.get("missing") is None
    assert config.get("missing", "fallback") == "fallback"


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("alpha 1.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 1.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 1\nalpha = 2\n")


def test_serialize_round_trip():
    config = RunConfig({"b.two": "2", "a.one": "uno", "alpha": "inf"})
    text = serialize_config(config)
    assert text.splitlines() == ["a.one = uno", "alpha = inf", "b.two = 2"]
    assert parse_config_text(text).values == config.values


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 2\n")
    assert load_config(path).get_int("alpha") == 2


def test_typed_accessors():
    config = RunConfig({"x": "2.5", "n": "7", "flag": "true", "off": "no",
                        "list": "1,2.5,inf", "order": "infinity"})
    assert config.get_float("x") == 2.5
    assert config.get_int("n") == 7
    assert config.get_floats("list") == [1.0, 2.5, math.inf]
    assert config.get_float("order") == math.inf
    with pytest.raises(ConfigError):
        config.get_float("flag")
    with pytest.raises(ConfigError):
        config.get_int("x")
    with pytest.raises(ConfigError):
        RunConfig({}).require("anything")


def test_updated_returns_merged_copy():
    base = RunConfig({"a": "1"})
    merged = base.updated({"b": "2"})
    assert merged.values == {"a": "1", "b": "2"}
    assert base.values == {"a": "1"}


# ---------------------------------------------------------------------------
# Domains and grids from config
# ---------------------------------------------------------------------------

def test_domain_from_config_shapes():
    config = RunConfig({
        "gamma.k_fermi": "0.8",
        "omega.shape": "interval_union",
        "omega.intervals": "0:1,2:3",
        "box.shape": "box",
        "box.bounds": "-1:1,0:2",
        "ball.shape": "ball",
        "ball.center": "0,0",
        "ball.radius": "1.5",
        "poly.shape": "polygon",
        "poly.vertices": "0:0,1:0,0:1",
    })
    assert domain_from_config(config, "gamma") == interval(-0.8, 0.8)
    assert domain_from_config(config, "omega") == IntervalUnion(
        ((0.0, 1.0), (2.0, 3.0)))
    assert domain_from_config(config, "box") == Box(((-1.0, 1.0), (0.0, 2.0)))
    assert domain_from_config(config, "ball") == Ball((0.0, 0.0), 1.5)
    assert domain_from_config(config, "poly") == ConvexPolygon(
        ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def test_domain_from_config_errors():
    with pytest.raises(ConfigError):
        domain_from_config(RunConfig({}), "gamma")
    with pytest.raises(ConfigError):
        domain_from_config(RunConfig({"gamma.shape": "cone"}), "gamma")
    with pytest.raises(ConfigError):
        domain_from_config(RunConfig({"gamma.shape": "ball",
                                      "gamma.center": "0,0"}), "gamma")
    # Geometry violations surface as config errors with the prefix.
    bad = RunConfig({"gamma.shape": "interval",
                     "gamma.intervals": "0:1,0.5:2"})
    with pytest.raises(ConfigError, match="gamma"):
        domain_from_config(bad, "gamma")
    with pytest.raises(ConfigError):
        domain_from_config(RunConfig({"gamma.shape": "box",
                                      "gamma.bounds": "1:2:3"}), "gamma")


def test_grid_from_config():
    np.testing.assert_allclose(grid_from_config("20:200:5"),
                               np.geomspace(20.0, 200.0, 5))
    np.testing.assert_allclose(grid_from_config("5, 10, 25"),
                               [5.0, 10.0, 25.0])
    np.testing.assert_allclose(grid_from_config("42"), [42.0])
    for bad in ("20:200", "200:20:5", "0:10:5", "20:200:1", "a,b", "",
                "20:inf:4", "nan:200:4", "20:nan:4", "inf", "nan",
                "20,inf", "0,10", "-5,10", "20,20,40,50"):
        with pytest.raises(ConfigError):
            grid_from_config(bad)


def test_window_from_config():
    assert window_from_config("20:100") == (20.0, 100.0)
    with pytest.raises(ConfigError):
        window_from_config("20")
    with pytest.raises(ConfigError):
        window_from_config("a:b")
    assert window_from_config("-inf:inf") == (-math.inf, math.inf)
    for bad in ("80:20", "20:20", "nan:inf", "10:nan"):
        with pytest.raises(ConfigError, match="lo < hi"):
            window_from_config(bad)


def test_alphas_from_config():
    assert alphas_from_config(RunConfig({})) == [1.0]
    assert alphas_from_config(RunConfig({"alpha": "0.5,1,inf"})) \
        == [0.5, 1.0, math.inf]
    with pytest.raises(ConfigError):
        alphas_from_config(RunConfig({"alpha": "0"}))
    with pytest.raises(ConfigError):
        alphas_from_config(RunConfig({"alpha": "-2"}))


def test_pipeline_config_from():
    config = RunConfig({"mode": "lattice", "disc.nodes_per_unit": "5",
                        "disc.budget": "800"})
    pipeline = pipeline_config_from(config)
    assert pipeline.mode == "lattice"
    assert pipeline.nodes_per_unit == 5.0
    assert pipeline.budget == 800
    defaults = pipeline_config_from(RunConfig({}))
    assert defaults.mode == "auto"
    with pytest.raises(ConfigError):
        pipeline_config_from(RunConfig({"mode": "quantum"}))


def _documented_keys(lines, indent):
    """Keys of a reference block: first word of each line at the indent,
    with omega.* standing for the gamma.* keys."""
    keys = {line.split()[0] for line in lines
            if not line[:indent].strip() and line[indent:indent + 1].strip()}
    if "omega.*" in keys:
        keys.remove("omega.*")
        keys |= {"omega." + key.partition(".")[2] for key in keys
                 if key.startswith("gamma.")}
    return keys


def test_known_keys_match_both_key_references():
    docstring = config_module.__doc__.split("Key reference", 1)[1]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config keys\n\n```\n", 1)[1].split("```")[0]
    assert _documented_keys(docstring.splitlines(), 4) == KNOWN_KEYS
    assert _documented_keys(block.splitlines(), 0) == KNOWN_KEYS
    assert len(KNOWN_KEYS) == 11 + 2 * 7


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def result_fixture():
    return EntropyResult(alpha=2.0, S=1.25, n=40, L=10.0, mode="continuum",
                         clamp_count=1, max_violation=2e-9, interior=12,
                         wall_time_s=0.125)


def test_entropy_row_contents():
    row = entropy_row(result_fixture())
    assert row["alpha"] == 2.0
    assert row["S"] == 1.25
    assert row["clamp_count"] == 1
    assert row["mode"] == "continuum"
    assert row["interior"] == 12
    assert row["wall_time_s"] == 0.125


def test_entropy_row_serializes_infinite_order():
    result = EntropyResult(alpha=math.inf, S=0.5, n=10, L=5.0)
    row = entropy_row(result)
    assert row["alpha"] == "inf"
    assert json.loads(json.dumps(row))["alpha"] == "inf"


@pytest.mark.parametrize("mode, gamma, omega, L", [
    ("lattice", interval(-math.pi / 2.0, math.pi / 2.0), interval(0.0, 1.0),
     40.0),
    ("continuum", interval(-1.0, 1.0), interval(0.0, 1.0), 5.0),
    ("tensor_box", Box(((-1.0, 1.0), (-1.0, 1.0))),
     Box(((0.0, 1.0), (0.0, 1.0))), 2.0),
    ("radial", Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), 3.0),
], ids=["lattice", "continuum", "tensor_box", "radial"])
def test_entropy_result_inverts_entropy_row(mode, gamma, omega, L):
    config = PipelineConfig(mode="auto" if mode == "radial" else mode)
    by_order = sweep(gamma, omega, (0.5, 1.0, math.inf), [L], config)
    for result_set in by_order.values():
        (result,) = result_set.results
        assert result.mode == mode
        assert result.interior is not None and result.wall_time_s is not None
        row = entropy_row(result)
        assert entropy_result(row) == result
        # Through JSON text with a partial row's tag, as a resume reads it.
        saved = json.loads(json.dumps({**row, "config_hash": "abc"}))
        assert entropy_result(saved) == result


@pytest.mark.parametrize("alpha", [1.0, math.inf])
def test_entropy_result_inverts_synthetic_rows(alpha):
    grid = [10.0, 20.0, 40.0, 80.0]
    for result in synthetic_sweep(interval(-1.0, 1.0), interval(0.0, 1.0),
                                  alpha, grid).results:
        row = entropy_row(result)
        assert (row["mode"], row["n"]) == ("synthetic", 0)
        assert "interior" not in row and "wall_time_s" not in row
        assert entropy_result(json.loads(json.dumps(row))) == result


def test_make_record_sorts_rows_and_drops_empty_blocks():
    rows = [
        {"alpha": "inf", "L": 10.0, "S": 1.0},
        {"alpha": 1.0, "L": 20.0, "S": 2.0},
        {"alpha": 1.0, "L": 10.0, "S": 1.5},
    ]
    record = make_record("entropy", RunConfig({"b": "2", "a": "1"}),
                         rows=rows, fit=None, j={"value": 4.0})
    assert [r["alpha"] for r in record["rows"]] == [1.0, 1.0, "inf"]
    assert [r["L"] for r in record["rows"]] == [10.0, 20.0, 10.0]
    assert "fit" not in record
    assert record["j"] == {"value": 4.0}
    assert list(record["config"]) == ["a", "b"]
    assert record["schema_version"] == 1


def test_write_json_deterministic(tmp_path):
    record = make_record("entropy", RunConfig({"alpha": "1"}),
                         rows=[{"alpha": 1.0, "L": 2.0, "S": 0.5}])
    text_a = write_json(record)
    text_b = write_json(record, tmp_path / "out.json")
    assert text_a == text_b
    assert (tmp_path / "out.json").read_text() == text_a + "\n"
    parsed = json.loads(text_a)
    assert parsed["command"] == "entropy"


def test_fit_and_j_blocks():
    L = np.geomspace(10.0, 100.0, 8)
    fit = fit_scaling((L, (1 / 3) * np.log(L) + 0.4), d=1)
    block = fit_block(fit, {"theory": 1 / 3, "fitted": fit.log_coefficient,
                            "rel_dev": 0.0, "stderr": 0.0}, alpha=1.0)
    assert block["a"] == pytest.approx(1 / 3)
    assert block["b"] == pytest.approx(0.4)
    assert block["alpha"] == 1.0
    assert block["theory"] == pytest.approx(1 / 3)
    assert block["npoints"] == 8

    coefficient = widom_J(interval(-1.0, 1.0), interval(0.0, 1.0))
    assert j_block(coefficient) == {"value": 4.0, "method": "closed_form",
                                    "error_estimate": 0.0}


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [entropy_row(result_fixture())]
    write_csv(rows, path, d=1)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == 1
    assert float(parsed[0]["S"]) == 1.25
    assert float(parsed[0]["ln_L"]) == pytest.approx(math.log(10.0))
    assert float(parsed[0]["S_scaled"]) == 1.25      # d=1: S unscaled
    assert parsed[0]["mode"] == "continuum"


# ---------------------------------------------------------------------------
# Resume hashing and partial rows
# ---------------------------------------------------------------------------

def test_config_hash_ignores_output_keys():
    base = RunConfig({"alpha": "1", "sweep.L": "10:100:5"})
    changed = base.updated({"alpha": "2"})
    assert config_hash(base) != config_hash(changed)


def test_partial_rows_round_trip(tmp_path):
    path = tmp_path / "run.json.partial"
    digest = "abc123"
    append_partial_row(path, {"alpha": 1.0, "L": 10.0, "S": 0.5}, digest)
    append_partial_row(path, {"alpha": "inf", "L": 20.0, "S": 0.25}, digest)
    append_partial_row(path, {"alpha": 1.0, "L": 30.0, "S": 0.1}, "other")
    with open(path, "a") as handle:
        handle.write('{"torn": ')          # crash mid-write

    rows = load_partial_rows(path, digest)
    assert set(rows) == {(1.0, 10.0), ("inf", 20.0)}
    assert rows[(1.0, 10.0)]["S"] == 0.5
    assert load_partial_rows(tmp_path / "absent", digest) == {}
