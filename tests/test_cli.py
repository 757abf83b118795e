"""End-to-end command line tests (in-process via cli.main)."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from frgeo import (
    DyadicGrid,
    FiniteDensity,
    IntegratorConfig,
    SignedFunction,
    SimplexPoint,
    density_at,
    ellipse_param_n2,
    geodesic_flow,
    integrate_coupled,
    normalize_velocity,
    simplex_flow_samples,
    simplex_trajectory,
)
from frgeo.catalogs import BUILTIN_CATALOGS
from frgeo.cli import _parse_levels, _write_json, main, parse_number, read_config_file
from frgeo.errors import ConfigError
from frgeo.geodesics import evaluate_scalar
from frgeo.simplex import TangentVector


def run_cli(*argv):
    return main(list(argv))


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_writer_bytes(header, rows):
    """Reference CSV bytes: csv.writer, floats as {:.17g}."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, int) else "{:.17g}".format(v) for v in row] for row in rows
    )
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# token parsing


def test_parse_number_forms():
    assert parse_number("0.5") == 0.5
    assert parse_number("1/3") == 1.0 / 3.0
    assert parse_number("pi") == math.pi
    assert parse_number("PI/2") == math.pi / 2.0
    assert parse_number("3pi/4") == 3.0 * math.pi / 4.0
    assert parse_number("2.5pi") == 2.5 * math.pi
    assert parse_number("2 * pi") == 2.0 * math.pi
    with pytest.raises(ValueError):
        parse_number("two")


@pytest.mark.parametrize(
    "token",
    ["nan", "-NaN", "inf", "-inf", "Infinity", "1e400", "1" + "0" * 400 + "/3",
     "1" + "0" * 400 + "pi"],
    ids=["nan", "-NaN", "inf", "-inf", "Infinity", "1e400", "huge_fraction", "huge_pi"],
)
def test_parse_number_rejects_non_finite(token):
    with pytest.raises(ValueError):
        parse_number(token)


def test_parse_levels_forms():
    assert _parse_levels("3-8") == [3, 4, 5, 6, 7, 8]
    assert _parse_levels("3,5,7") == [3, 5, 7]
    assert _parse_levels("7, 3, 5") == [3, 5, 7]
    assert _parse_levels("4,4") == [4]
    with pytest.raises(ValueError):
        _parse_levels("8-3")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n t_end = pi/2 \n\nn_times=5 # trailing\n")
    assert read_config_file(cfg) == {"t_end": "pi/2", "n_times": "5"}
    cfg.write_text("t_end = 1\nt_end = 2\n")
    with pytest.raises(ConfigError):
        read_config_file(cfg)
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError):
        read_config_file(cfg)
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "missing.cfg")


# ---------------------------------------------------------------------------
# simplex-geodesic


def test_default_sweep_writes_twelve_trajectories(tmp_path, capsys):
    assert run_cli("simplex-geodesic", "--out", str(tmp_path)) == 0
    files = sorted(tmp_path.glob("trajectory_*.csv"))
    assert [f.name for f in files] == [f"trajectory_{k:02d}.csv" for k in range(12)]
    rows = read_rows(files[0])
    assert rows[0] == ["t", "theta_1", "theta_2"]
    assert len(rows) == 101  # header + default n_times
    assert abs(float(rows[1][1]) - 1.0 / 3.0) < 1e-14
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines == [str(f) for f in files]


def test_runs_are_byte_deterministic(tmp_path):
    args = ("simplex-geodesic", "tau=1.0", "n_times=9", "t_end=1.2")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert (a / "trajectory_00.csv").read_bytes() == (
        b / "trajectory_00.csv"
    ).read_bytes()

    assert run_cli(*args, "--format", "json", "--out", str(a)) == 0
    assert run_cli(*args, "--format", "json", "--out", str(b)) == 0
    assert (a / "trajectory_00.json").read_bytes() == (
        b / "trajectory_00.json"
    ).read_bytes()


def test_json_frames_reimport_bit_exactly(tmp_path):
    assert (
        run_cli(
            "simplex-geodesic",
            "tau=1.0",
            "n_times=7",
            "t_end=pi/2",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        )
        == 0
    )
    obj = json.loads((tmp_path / "trajectory_00.json").read_text())
    alpha = np.array(obj["alpha"])
    beta = np.array(obj["beta"])
    assert len(obj["frames"]) == 7
    for key, stored in obj["frames"].items():
        t = float(key)
        assert repr(t) == key  # keys are repr round-trips
        y, _, _ = evaluate_scalar(alpha[None, :], beta[None, :], np.array([[t]]))
        assert y[0].tolist() == stored  # bit-exact reconstruction


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 1.0\nt_end = pi/4\nn_times = 3\n")
    out = tmp_path / "out"
    assert (
        run_cli(
            "simplex-geodesic",
            "--config",
            str(cfg),
            "--format",
            "json",
            "--out",
            str(out),
            "t_end=pi/2",
        )
        == 0
    )
    obj = json.loads((out / "trajectory_00.json").read_text())
    assert obj["config"]["t_end"] == math.pi / 2.0  # override wins
    assert obj["config"]["n_times"] == 3


def test_boundary_touch_exits_3(tmp_path, capsys):
    touch = math.pi - 2.0 * math.atan(math.sqrt(2.0))
    code = run_cli(
        "simplex-geodesic",
        "w_raw=1,1",
        f"t_end={touch!r}",
        "n_times=2",
        "--out",
        str(tmp_path),
    )
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "BoundaryTouch"
    assert payload["coordinate"] == 3
    assert abs(payload["time"] - touch) < 1e-15


# ---------------------------------------------------------------------------
# configuration errors (exit 2)


def test_unknown_key_rejected(tmp_path, capsys):
    assert run_cli("simplex-geodesic", "steps=4", "--out", str(tmp_path)) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "steps"


def test_duplicate_override_rejected(tmp_path, capsys):
    code = run_cli(
        "simplex-geodesic", "t_end=1", "t_end=2", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "t_end"


def test_conflicting_velocity_keys_rejected(tmp_path, capsys):
    code = run_cli(
        "simplex-geodesic", "tau=1.0", "w_raw=1,1", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "w_raw"


def test_tau_away_from_barycenter_rejected(tmp_path, capsys):
    code = run_cli(
        "oracle-compare", "theta0=0.2,0.3", "tau=1.0", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "tau"


def test_bad_values_rejected(tmp_path):
    base = ("simplex-geodesic", "--out", str(tmp_path))
    assert run_cli(*base, "t_end=0") == 2
    assert run_cli(*base, "t_end=nope") == 2
    assert run_cli(*base, "n_times=1") == 2
    assert run_cli(*base, "theta0=0.9,0.2") == 2  # leaves the simplex
    assert run_cli("pixelation-convergence", "--out", str(tmp_path), "levels=") == 2
    assert run_cli("pixelation-convergence", "--out", str(tmp_path), "j_ref=4") == 2
    assert run_cli("density-geodesic", "--out", str(tmp_path), "level=0") == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (("simplex-geodesic", "tau=nan"), "tau"),
        (("simplex-geodesic", "tau=1e400"), "tau"),
        (("simplex-geodesic", "theta0=nan,0.3", "w_raw=1,-1"), "theta0"),
        (("density-geodesic", "t_end=inf"), "t_end"),
        (("moments", "t_end=-inf"), "t_end"),
        (("oracle-compare", "w_raw=nan,1"), "w_raw"),
        (("oracle-compare", "step=1" + "0" * 400 + "/3"), "step"),
    ],
    ids=["tau_nan", "tau_1e400", "theta0_nan", "t_end_inf", "moments_t_end_-inf",
         "w_raw_nan", "step_huge_fraction"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, argv, field):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["field"] == field
    assert not any(tmp_path.iterdir())


def test_catalog_token_errors(tmp_path, capsys):
    code = run_cli(
        "pixelation-convergence", "f0=no_such_catalog", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "f0"

    bad = tmp_path / "bad.cat"
    bad.write_text("1 0 1 extra tokens here\n")
    code = run_cli(
        "pixelation-convergence", f"g0={bad}", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "g0"


def test_dimension_mismatch_rejected(tmp_path, capsys):
    code = run_cli(
        "density-geodesic", "f0=uniform1d", "g0=g01_2d", "--out", str(tmp_path)
    )
    assert code == 2
    assert stderr_payload(capsys)["field"] == "g0"


# ---------------------------------------------------------------------------
# domain errors (exit 3)


def test_degenerate_projection_exits_3(tmp_path, capsys):
    code = run_cli(
        "density-geodesic", "level=2", "--out", str(tmp_path)
    )  # g01 averages to zero on the level-2 grid
    assert code == 3
    assert stderr_payload(capsys)["error"] == "DegenerateVelocity"


def test_rk4_leaving_domain_exits_3(tmp_path, capsys):
    code = run_cli("oracle-compare", "t_end=1.5", "--out", str(tmp_path))
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "LeftDomain"
    assert 1.39 < payload["time"] < 1.41
    assert payload["coordinate"] is None  # coupled system: full-state check


def test_hypothesis_violation_exits_3(tmp_path, capsys):
    code = run_cli(
        "pixelation-convergence",
        "g0=uniform1d",
        "f0=misaligned_f0_1d",
        "--out",
        str(tmp_path),
    )
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "HypothesisViolation"
    assert payload["condition"] == "zero-mean"


# ---------------------------------------------------------------------------
# density / pixelation / moments / oracle outputs


def test_density_frames_conserve_mass(tmp_path):
    assert (
        run_cli(
            "density-geodesic",
            "n_frames=5",
            "t_end=pi",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        )
        == 0
    )
    obj = json.loads((tmp_path / "density_geodesic.json").read_text())
    assert obj["space"] == {"kind": "dyadic", "dimension": 1, "level": 6}
    weight = 1.0 / 64.0
    for values in obj["frames"].values():
        assert abs(sum(values) * weight - 1.0) < 1e-10


def test_density_csv_frames(tmp_path):
    assert (
        run_cli(
            "density-geodesic",
            "level=3",
            "n_frames=3",
            "--out",
            str(tmp_path),
        )
        == 0
    )
    files = sorted(tmp_path.glob("frame_*.csv"))
    assert len(files) == 3
    rows = read_rows(files[0])
    assert rows[0] == ["cell_index", "x_center_1", "f_value"]
    assert len(rows) == 9
    # uniform at t = 0, up to the amplitude/phase reconstruction rounding
    assert np.allclose([float(r[2]) for r in rows[1:]], 1.0, atol=1e-14)


@pytest.mark.parametrize(
    "f0, g0, level",
    # level 6 in 2-D has 4,096 cells, several write blocks
    [
        ("uniform1d", "g01_1d", 3),
        ("uniform2d", "g02_2d", 3),
        ("uniform2d", "g02_2d", 6),
    ],
)
def test_density_csv_frames_match_csv_writer(tmp_path, f0, g0, level):
    argv = ("density-geodesic", f"f0={f0}", f"g0={g0}", f"level={level}", "n_frames=4")
    assert run_cli(*argv, "t_end=3pi/4", "--out", str(tmp_path)) == 0
    f0_cat, g0_cat = BUILTIN_CATALOGS[f0](), BUILTIN_CATALOGS[g0]()
    grid = DyadicGrid(f0_cat.dimension, level)
    f = FiniteDensity(grid, f0_cat.cell_averages(grid))
    g = normalize_velocity(f, SignedFunction(grid, g0_cat.cell_averages(grid)))
    state = geodesic_flow(f, g)
    header = (
        ["cell_index"]
        + [f"x_center_{d + 1}" for d in range(grid.dimension)]
        + ["f_value"]
    )
    centers = grid.centers()
    for k, t in enumerate(np.linspace(0.0, 3.0 * math.pi / 4.0, 4)):
        values = density_at(state, t).values
        rows = ([i, *centers[i], values[i]] for i in range(grid.cell_count))
        expected = csv_writer_bytes(header, rows)
        assert (tmp_path / f"frame_{k:02d}.csv").read_bytes() == expected


def test_simplex_and_oracle_csv_match_csv_writer(tmp_path):
    p0 = SimplexPoint(np.array([1.0 / 3.0, 1.0 / 3.0]))
    v = TangentVector(ellipse_param_n2(1.0))
    # 2,500 rows span several write blocks, the last one partial
    assert run_cli("simplex-geodesic", "tau=1", "n_times=2500", "t_end=1",
                   "--out", str(tmp_path)) == 0
    times = np.linspace(0.0, 1.0, 2500)
    y, _ = simplex_flow_samples(p0, v, times)
    expected = csv_writer_bytes(
        ["t", "theta_1", "theta_2"], ([t, *y[s, :2]] for s, t in enumerate(times))
    )
    assert (tmp_path / "trajectory_00.csv").read_bytes() == expected

    assert run_cli("oracle-compare", "tau=1", "step=0.01", "t_end=0.5",
                   "--out", str(tmp_path)) == 0
    traj = integrate_coupled(p0, v, IntegratorConfig(0.01, 0.5))
    closed = np.array([q.theta for q in simplex_trajectory(p0, v, traj.times)])
    diff = np.abs(closed - traj.positions).max(axis=1)
    header = ["t", "theta_1", "theta_2", "rk4_theta_1", "rk4_theta_2", "abs_diff"]
    rows = (
        [t, *closed[s], *traj.positions[s], diff[s]] for s, t in enumerate(traj.times)
    )
    expected = csv_writer_bytes(header, rows)
    assert (tmp_path / "oracle_compare.csv").read_bytes() == expected


def test_write_json_matches_json_dump(tmp_path):
    obj = {
        "config": {"kind": "k", "nested": {"empty_list": [], "empty_dict": {}}},
        "ints": [1, -2, 0],
        "flags": [True, False, None],
        "text": ["a, b", "", "c"],
        "floats": [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, 2.0],
        "single": [0.5],
        "long": [k / 7.0 for k in range(2500)],  # several write blocks
        "mixed": [1.0, 2, "3, 4", None, 5.5],
        "rows": [[0.5, 1.5], [], [[2.5, -0.0], {"a": 1}]],
        "tuple": (1.5, 2.5),
        "scalars": {"f": 1e-7, "i": 3, "b": False, "n": None, "s": "x, y"},
        "keys": {2: "int", 0.5: "float", False: "bool", None: "none"},
        # arrays are written as their tolist(), a block of items at a time
        "array": np.arange(2500) / 7.0,
        "matrix": np.arange(7500.0).reshape(2500, 3) / 3.0,
        "column_view": np.arange(12.0).reshape(4, 3)[:, :2],
        "int_array": np.arange(5),
        "bool_array": np.array([True, False]),
        "empty_array": np.empty(0),
        "empty_matrix": np.empty((0, 2)),
        "array_of_one": np.array([-0.0]),
    }
    path = tmp_path / "ours.json"
    _write_json(path, obj)
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        json.dump(obj, fh, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
    assert path.read_bytes() == reference.read_bytes()


def test_json_archive_is_not_held_as_python_floats(tmp_path):
    # 12 frames of 65,536 cells are 6 MiB as arrays; as Python float lists
    # they would add about 24 MiB (a 24-byte float and an 8-byte slot each)
    args = ("density-geodesic", "f0=uniform2d", "g0=g01_2d", "level=8",
            "n_frames=12", "--format", "json", "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ladder_csv_default_run(tmp_path):
    assert run_cli("pixelation-convergence", "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "ladder.csv")
    assert rows[0][:3] == ["j", "alpha_j", "degenerate"]
    assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6", "7", "8"]
    alphas = [float(r[1]) for r in rows[1:]]
    assert np.allclose(
        alphas, [0.75, 0.9, 0.9375, 0.975, 0.984375, 0.99375], atol=1e-15
    )
    errors = [float(r[7]) for r in rows[1:]]  # weak error at t = pi/2
    assert errors[2] < errors[0] and errors[4] < errors[2]


def test_level_list_matches_range(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("pixelation-convergence", "levels=3-5", "--out", str(a)) == 0
    assert run_cli("pixelation-convergence", "levels=5,3,4", "--out", str(b)) == 0
    assert (a / "ladder.csv").read_bytes() == (b / "ladder.csv").read_bytes()


def test_ladder_json_echoes_catalog_tokens(tmp_path):
    assert (
        run_cli(
            "pixelation-convergence",
            "levels=3,5",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        )
        == 0
    )
    obj = json.loads((tmp_path / "ladder.json").read_text())
    assert obj["config"]["f0"] == "misaligned_f0_1d"
    assert obj["config"]["levels"] == [3, 5]
    assert [row["j"] for row in obj["rows"]] == [3, 5]
    assert not obj["rows"][0]["degenerate"]


def test_moments_csv(tmp_path):
    assert (
        run_cli("moments", "n_times=4", "t_end=2pi", "--out", str(tmp_path)) == 0
    )
    rows = read_rows(tmp_path / "moments.csv")
    assert rows[0] == ["t", "mean_1", "var_1"]
    assert len(rows) == 5
    assert float(rows[1][1]) == 0.5


def test_oracle_compare_csv(tmp_path):
    assert (
        run_cli(
            "oracle-compare", "step=0.002", "t_end=1.0", "--out", str(tmp_path)
        )
        == 0
    )
    rows = read_rows(tmp_path / "oracle_compare.csv")
    assert rows[0] == [
        "t",
        "theta_1",
        "theta_2",
        "rk4_theta_1",
        "rk4_theta_2",
        "abs_diff",
    ]
    assert len(rows) == 502
    assert max(float(r[5]) for r in rows[1:]) < 1e-6


def test_oracle_compare_json_uses_w_raw(tmp_path):
    assert (
        run_cli(
            "oracle-compare",
            "theta0=0.2,0.3",
            "w_raw=1,-1",
            "t_end=0.5",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        )
        == 0
    )
    obj = json.loads((tmp_path / "oracle_compare.json").read_text())
    assert obj["config"]["tau"] is None
    assert obj["max_abs_diff"] < 1e-8


def test_oracle_compare_time_grid_ends_on_t_end(tmp_path):
    # 3 * 0.1 == t_end here, so ceil(t_end / step) == 4 would add an empty step
    assert run_cli("oracle-compare", "step=0.1", "t_end=0.30000000000000004",
                   "--format", "json", "--out", str(tmp_path)) == 0
    obj = json.loads((tmp_path / "oracle_compare.json").read_text())
    assert obj["times"] == [0.0, 0.1, 0.2, 0.30000000000000004]


def test_density_json_runs_are_byte_deterministic(tmp_path):
    args = ("density-geodesic", "level=4", "n_frames=6", "--format", "json")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a/density_geodesic.json").read_bytes() == (
        tmp_path / "b/density_geodesic.json"
    ).read_bytes()


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    assert run_cli("moments", "n_times=3", "--out", str(nested)) == 0
    assert (nested / "moments.csv").exists()
