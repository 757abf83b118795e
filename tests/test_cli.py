"""End-to-end command line tests (in-process via cli.main)."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import within_a_second
import frgeo
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
from frgeo.boxes import load_catalog
from frgeo.catalogs import BUILTIN_CATALOGS
from frgeo.cli import (
    KIND_KEYS,
    _FRAMES_PER_GROUP,
    _catalog_state,
    _class_runs,
    _csv_floats,
    _csv_run_texts,
    _indexed_name,
    _json_chunks,
    _json_floats,
    _parse_levels,
    _write_json,
    build_parser,
    main,
    parse_number,
    read_config_file,
    run_experiment,
    validate_config,
)
from frgeo.errors import ConfigError
from frgeo.geodesics import evaluate_scalar
from frgeo.simplex import TangentVector
from frgeo.spaces import VALUES_PER_BLOCK


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


def staggered_catalogs(directory, strips=18, seed=7):
    """Catalog files f0, g0 of strips x strips boxes on [0,1)^2.

    Each horizontal strip has its own non-dyadic x breaks, so the cells on a
    strip boundary mix different box pairs: a level-7 frame holds more than
    1,000 distinct values.  f0 has exact unit mass and g0 = (w - mean) f0
    is exactly centered.
    """
    rng = random.Random(seed)

    def breaks():
        inner = [Fraction(k, strips) + Fraction(rng.randint(1, 5), 13 * strips)
                 for k in range(1, strips)]
        return [Fraction(0), *inner, Fraction(1)]

    ys = breaks()
    boxes = [
        (Fraction(rng.randint(8, 24), 16), Fraction(rng.randint(-8, 8), 8),
         x_lo, x_hi, y_lo, y_hi)
        for y_lo, y_hi in zip(ys, ys[1:])
        for xs in [breaks()]
        for x_lo, x_hi in zip(xs, xs[1:])
    ]
    volumes = [(b[3] - b[2]) * (b[5] - b[4]) for b in boxes]
    mass = sum(b[0] * v for b, v in zip(boxes, volumes))
    mean = sum(b[1] * b[0] / mass * v for b, v in zip(boxes, volumes))
    paths = []
    for name, value in (("f0", lambda b: b[0] / mass),
                        ("g0", lambda b: (b[1] - mean) * b[0] / mass)):
        path = directory / f"staggered_{name}.txt"
        path.write_text("".join(
            " ".join(str(x) for x in (value(b), *b[2:])) + "\n" for b in boxes
        ))
        paths.append(path)
    return paths


def catalog_pair(f0, g0, tmp_path):
    """Config tokens and catalogs of a built-in pair, or of "staggered" with
    an optional strip count (18 by default), as in "staggered32"."""
    staggered = re.fullmatch(r"staggered(\d*)", f0)
    if staggered:
        strips = int(staggered.group(1) or 18)
        f0, g0 = (str(p) for p in staggered_catalogs(tmp_path, strips))
        return (f0, g0), (load_catalog(f0), load_catalog(g0))
    return (f0, g0), (BUILTIN_CATALOGS[f0](), BUILTIN_CATALOGS[g0]())


def flow_state(f0_cat, g0_cat, level):
    grid = DyadicGrid(f0_cat.dimension, level)
    f = FiniteDensity(grid, f0_cat.cell_averages(grid))
    g = normalize_velocity(f, SignedFunction(grid, g0_cat.cell_averages(grid)))
    return geodesic_flow(f, g)


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
    assert parse_number("-pi/2") == -math.pi / 2.0
    assert parse_number("+pi") == math.pi
    assert parse_number("-3pi/4") == -3.0 * math.pi / 4.0
    assert parse_number("-2.5 * pi") == -2.5 * math.pi
    for bad in ("two", "--pi", "+-pi", "pi-"):
        with pytest.raises(ValueError):
            parse_number(bad)


@pytest.mark.parametrize(
    "token",
    ["nan", "-NaN", "inf", "-inf", "Infinity", "1e400", "1" + "0" * 400 + "/3",
     "1" + "0" * 400 + "pi", "-1" + "0" * 400 + "pi/2"],
    ids=["nan", "-NaN", "inf", "-inf", "Infinity", "1e400", "huge_fraction", "huge_pi",
         "signed_huge_pi"],
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


def test_config_and_catalog_files_may_start_with_a_bom(tmp_path, monkeypatch):
    # a UTF-8 byte-order mark is skipped: the run writes the same bytes
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        run_dir = tmp_path / f"bom{len(bom)}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        Path("run.cfg").write_bytes(bom + b"f0 = f0.cat\nlevel = 3\nn_frames = 3\n")
        Path("f0.cat").write_bytes(bom + b"1/2 0 1/2\n3/2 1/2 1\n")
        for fmt in ("csv", "json"):
            assert run_cli("density-geodesic", "--config", "run.cfg", "--format", fmt,
                           "--out", fmt) == 0
        outputs.append({p.as_posix(): p.read_bytes() for p in sorted(Path().rglob("*"))
                        if p.parent.name in ("csv", "json")})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_signed_pi_multiple_runs_as_its_float(tmp_path):
    for fmt in ("csv", "json"):
        written = []
        for tau in ("-pi/2", "-1.5707963267948966"):
            out = tmp_path / fmt / tau
            assert run_cli("simplex-geodesic", f"tau={tau}", "--format", fmt,
                           "--out", str(out)) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] and written[0] == written[1]


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


@pytest.mark.parametrize("theta_1", ["1e-8", "1e-10"])
def test_start_near_the_boundary_floor_runs(tmp_path, theta_1):
    # theta_1 four and two decades above BOUNDARY_FLOOR (1e-12): frame 0
    # rebuilds it within 2.1e-11 relative, so no sample falls below the floor
    argv = ("simplex-geodesic", f"theta0={theta_1},0.5", "w_raw=1,-0.3", "t_end=1e-3", "n_times=3")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    rows = (tmp_path / "trajectory_00.csv").read_text().splitlines()
    assert len(rows) == 4 and rows[1].startswith("0,")


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


def test_overrides_after_an_option(tmp_path, capsys):
    argv = ("pixelation-convergence", "levels=3-4", "--out", str(tmp_path), "j_ref=9")
    assert run_cli(*argv, "--format", "json") == 0
    obj = json.loads((tmp_path / "ladder.json").read_text())
    assert obj["config"]["levels"] == [3, 4] and obj["config"]["j_ref"] == 9
    # the same duplicate check as overrides before the option
    assert run_cli(*argv, "levels=5") == 2
    assert stderr_payload(capsys)["field"] == "levels"


def test_unknown_option_is_a_config_error(tmp_path, capsys):
    assert run_cli("moments", "level=3", "--out", str(tmp_path), "--bogus") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError" and payload["field"] == "--bogus"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (("moments", "--format", "xml", "--out", "out"), "format"),
        (("moments", "level=3", "--out"), "command line"),
    ],
)
def test_argparse_errors_are_config_errors(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError" and payload["field"] == field
    assert not list(tmp_path.iterdir())


def test_module_run_writes_one_error_line(tmp_path):
    # ``python -m frgeo.cli`` must run the module once: if importing frgeo
    # imported frgeo.cli too, runpy would warn on stderr ahead of the error
    src = Path(frgeo.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    argv = [sys.executable, "-W", "default", "-m", "frgeo.cli", "moments", "--format", "xml"]
    proc = subprocess.run(
        [*argv, "--out", str(out)], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError" and payload["field"] == "format"
    assert not out.exists()


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main() parses with the parser built when frgeo.cli was imported.  In
    # one process, rejected options, an unknown key and then a default run
    # of each kind give what a freshly built parser gives
    calls = [
        ("moments", "--config"),  # argparse: expected one argument
        ("moments", "--bogus"),
        ("simplex-geodesic", "steps=4"),
        *((kind,) for kind in KIND_KEYS),
    ]

    def run(k, argv, side):
        out = tmp_path / side / str(k)
        code = main([argv[0], "--out", str(out), *argv[1:]])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, captured.err, captured.out.replace(str(out), "OUT"), files

    constructed = []
    init = argparse.ArgumentParser.__init__
    shared = []
    for k, argv in enumerate(calls):
        if k == 1:  # from the second call on, count parser constructions
            monkeypatch.setattr(
                argparse.ArgumentParser, "__init__",
                lambda self, *a, **kw: constructed.append(1) or init(self, *a, **kw),
            )
        shared.append(run(k, argv, "shared"))
    assert constructed == []
    monkeypatch.undo()
    assert [r[0] for r in shared] == [2, 2, 2] + [0] * len(KIND_KEYS)
    for code, err, _, files in shared[:3]:
        assert json.loads(err)["error"] == "ConfigError" and not files
    assert all(files for *_, files in shared[3:])
    for k, argv in enumerate(calls):
        monkeypatch.setattr("frgeo.cli._PARSER", build_parser())
        assert run(k, argv, "fresh") == shared[k], calls[k]


def run_cli_warnings_as_errors(*argv):
    """``frgeo`` in a child process in which every RuntimeWarning is an error."""
    src = Path(frgeo.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "frgeo.cli", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("kind", ["oracle-compare", "simplex-geodesic"])
@pytest.mark.parametrize("w_raw", ["1e-170,-2e-170", "1e200,-3e200", "5e-324,0"])
def test_extreme_direction_magnitudes_run_without_warnings(tmp_path, kind, w_raw):
    # the norm of w_raw itself under- or overflows; the direction does not
    proc = run_cli_warnings_as_errors(
        kind, "theta0=0.2,0.3", f"w_raw={w_raw}", "--out", str(tmp_path)
    )
    assert proc.returncode == 0 and proc.stderr == ""


def two_box_catalog(path, value, split):
    """A 1-D catalog file: ``value`` on [0, split), ``-value`` on [split, 1)."""
    path.write_text(f"{value} 0 {split}\n-{value} {split} 1\n")
    return path


@pytest.mark.parametrize("kind", ["density-geodesic", "moments"])
def test_huge_velocity_values_normalize_without_warnings(tmp_path, kind):
    # g0 = +-1e308 overflows g0^2 unless it is scaled first; scaled, it
    # normalizes to the same unit velocity as g0 = +-1
    huge = two_box_catalog(tmp_path / "huge.txt", "1e308", "1/2")
    one = two_box_catalog(tmp_path / "one.txt", "1", "1/2")
    proc = run_cli_warnings_as_errors(
        kind, "f0=uniform1d", f"g0={huge}", "level=2", "--out", str(tmp_path / "huge")
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert run_cli(
        kind, "f0=uniform1d", f"g0={one}", "level=2", "--out", str(tmp_path / "one")
    ) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "huge").iterdir())
    for name in names:
        assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("kind", ["density-geodesic", "moments"])
@pytest.mark.parametrize(
    "f0, g0, message",
    [
        # a zero velocity has no direction to normalize
        ("uniform1d", ("0", "1/2"), "too small"),
        # the energy is 1e-600 or 1e-320: degenerate, as it always was
        ("uniform1d", ("1e-300", "1/2"), "too small"),
        ("uniform1d", ("1e-160", "1/2"), "too small"),
    ],
)
def test_unnormalizable_velocity_energies_exit_3(tmp_path, kind, f0, g0, message):
    g0_path = two_box_catalog(tmp_path / "g0.txt", *g0)
    out = tmp_path / "out"
    proc = run_cli_warnings_as_errors(
        kind, f"f0={f0}", f"g0={g0_path}", "level=2", "--out", str(out)
    )
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "DegenerateVelocity" and message in payload["message"]


@pytest.mark.parametrize("kind", ["density-geodesic", "moments"])
@pytest.mark.parametrize("g0", ["1", "1e308"])
def test_tiny_density_velocity_normalizes(tmp_path, kind, g0):
    # f0 = 1e-320 beside g0 = +-g0 on the first two quarters: the energy
    # overflows, and g scaled to max |g| / sqrt(f0) near one normalizes
    rest = Fraction(2) - Fraction("1e-320")
    f0 = tmp_path / "tiny.txt"
    f0.write_text(f"1e-320 0 1/2\n{rest} 1/2 1\n")
    g0_path = tmp_path / "g0.txt"
    g0_path.write_text(f"{g0} 0 1/4\n-{g0} 1/4 1/2\n0 1/2 1\n")
    proc = run_cli_warnings_as_errors(
        kind, f"f0={f0}", f"g0={g0_path}", "level=2", "--out", str(tmp_path / "out")
    )
    assert proc.returncode == 0 and proc.stderr == ""


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


@pytest.mark.parametrize("kind", ["oracle-compare", "simplex-geodesic"])
@pytest.mark.parametrize("w_raw", ["1,2,3", "1"], ids=["longer", "shorter"])
def test_w_raw_length_must_match_theta0(tmp_path, capsys, kind, w_raw):
    out = tmp_path / "out"
    assert run_cli(kind, "theta0=0.3,0.3", f"w_raw={w_raw}", "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "w_raw"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("density-geodesic", "g0=g01_1d", "level=3"),
        ("pixelation-convergence", "g0=misaligned_g0_1d", "levels=3-4"),
    ],
    ids=["density-geodesic", "pixelation-convergence"],
)
def test_catalog_value_beyond_float_range_exits_2(tmp_path, capsys, argv):
    cat = tmp_path / "huge.cat"
    cat.write_text("1e400 0 1/2\n1 1/2 1\n")
    out = tmp_path / "out"
    assert run_cli(*argv, f"f0={cat}", "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "f0"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (("density-geodesic", "level=64"), "level"),
        (("density-geodesic", "level=63"), "level"),
        (("moments", "level=64"), "level"),
        (("pixelation-convergence", "levels=3,64"), "levels"),
        (("density-geodesic", "f0=uniform2d", "g0=g01_2d", "level=40"), "level"),
        (("oracle-compare", "step=1e-300"), "step"),
        (("oracle-compare", "step=5e-324"), "step"),
        (("oracle-compare", "step=1e-3", "t_end=1e16"), "step"),
        (("moments", "f0=uniform2d", "g0=g01_2d", "level=63"), "level"),
        (("pixelation-convergence", "f0=misaligned_f0_2d", "g0=misaligned_g0_2d",
          "levels=3-63"), "levels"),
    ],
    ids=["density_1d_64", "density_1d_63", "moments_1d_64", "ladder_3_64",
         "density_2d_40", "oracle_1e300_steps", "oracle_subnormal_step",
         "oracle_1e19_steps", "moments_2d_63", "ladder_2d_3_63"],
)
def test_grid_beyond_numpy_index_range_exits_2(tmp_path, capsys, argv, field):
    # every case has more than 2^63 - 1 cells (on one axis, for moments and
    # ladders, which index only axes), or more than 2^53 RK4 steps (whose
    # count used to spin forever), so no grid is ever allocated
    assert within_a_second(run_cli, *argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["field"] == field
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "f0=uniform2d", "g0=g01_2d", "level=62"),
        ("pixelation-convergence", "f0=misaligned_f0_2d", "g0=misaligned_g0_2d",
         "levels=3-62"),
    ],
    ids=["moments_2d_62", "ladder_2d_3_62"],
)
def test_axis_levels_up_to_62_run_in_2d(tmp_path, argv):
    # 2^124 cells, but moments and ladders work on each axis's class edges,
    # which stay int64 up to level 62 per axis
    assert run_cli(*argv, "--out", str(tmp_path)) == 0


def test_rk4_table_beyond_memory_exits_2(tmp_path, capsys):
    # 10^15 steps are under the 2^53 limit, but their table needs 7 PiB:
    # its allocation fails before the first step, and is reported as a bad
    # step (numpy's tracemalloc hook counts the failed request, so no peak
    # is measured here)
    argv = ("oracle-compare", "step=1e-3", "t_end=1e12", "--out", str(tmp_path))
    assert within_a_second(run_cli, *argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "step"
    assert "does not fit in memory" in payload["message"]
    assert not any(tmp_path.iterdir())


def no_memory(*_):
    raise MemoryError("closed form")


def test_closed_form_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the closed form's check pass is sized by step, as the RK4 table
    monkeypatch.setattr("frgeo.geodesics.positions_at", no_memory)
    for fmt in ("csv", "json"):
        argv = ("oracle-compare", "step=1e-3", "--format", fmt, "--out", str(tmp_path))
        assert run_cli(*argv) == 2
        payload = single_config_error(capsys)
        assert payload["field"] == "step" and "does not fit in memory" in payload["message"]
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_closed_form_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, fmt):
    # the sweep's check pass runs before any file is opened; its write-time
    # evaluations are sized by n_times too
    argv = ("simplex-geodesic", "tau_count=3", "n_times=50", "--format", fmt,
            "--out", str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr("frgeo.geodesics.positions_at", no_memory)
        assert run_cli(*argv) == 2
        payload = single_config_error(capsys)
        assert payload["field"] == "n_times" and "does not fit in memory" in payload["message"]
        assert not any(tmp_path.iterdir())
    monkeypatch.setattr("frgeo.cli.positions_at", no_memory)
    assert run_cli(*argv) == 2
    assert single_config_error(capsys)["field"] == "n_times"


def single_config_error(capsys):
    """The one JSON line on stderr, a ConfigError."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    return payload


@pytest.mark.parametrize(
    "argv, field",
    [
        (("simplex-geodesic", "n_times=1000000000000000"), "n_times"),
        (("moments", "n_times=1000000000000000"), "n_times"),
        (("density-geodesic", "n_frames=1000000000000000"), "n_frames"),
        (("pixelation-convergence", "levels=3-100000000000000"), "levels"),
    ],
    ids=["simplex_times", "moments_times", "density_frames", "ladder_levels"],
)
def test_oversized_requests_exit_2(tmp_path, capsys, argv, field):
    # a time grid of 10^15 samples (7 PiB) fails to allocate, and a level
    # range is checked before it is expanded: each is a bad value of its key
    assert within_a_second(run_cli, *argv, "--out", str(tmp_path)) == 2
    assert single_config_error(capsys)["field"] == field
    assert not any(tmp_path.iterdir())


def test_long_level_range_is_rejected_unexpanded(tmp_path, capsys):
    # a list of a million levels alone would take about 38 MiB
    tracemalloc.start()
    try:
        code = run_cli("pixelation-convergence", "levels=3-1000000", "--out", str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and single_config_error(capsys)["field"] == "levels"
    assert peak < 2 * 2**20


@pytest.mark.parametrize("key", ["out", "f0", "g0"])
def test_unusable_paths_exit_2(tmp_path, capsys, key):
    # an output directory below a file, or a catalog that is a directory
    out = tmp_path / "out"
    argv = ["moments", "level=2", "--out", str(out)]
    if key == "out":
        (tmp_path / "file").write_text("")
        argv[-1] = str(tmp_path / "file" / "out")
    else:
        argv.append(f"{key}={tmp_path}")
    assert run_cli(*argv) == 2
    assert single_config_error(capsys)["field"] == key
    assert sorted(p.name for p in tmp_path.iterdir()) == (["file"] if key == "out" else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("j_ref", [None, 40, 1074])
def test_deep_ladder_runs_within_a_second(tmp_path, fmt, j_ref):
    # phi is paired in closed form, so no array grows with the reference
    # level: 2-D levels 3-30 run at the default j_ref = 34, at 40 and at
    # the deepest level a float cell side allows
    argv = (
        "pixelation-convergence", "f0=misaligned_f0_2d", "g0=misaligned_g0_2d",
        "levels=3-30", *([] if j_ref is None else [f"j_ref={j_ref}"]),
        "--format", fmt, "--out", str(tmp_path),
    )
    assert within_a_second(run_cli, *argv) == 0
    if fmt == "csv":
        with open(tmp_path / "ladder.csv", newline="") as fh:
            rows = [(int(r["j"]), float(r["alpha_j"])) for r in csv.DictReader(fh)]
    else:
        doc = json.loads((tmp_path / "ladder.json").read_text())
        rows = [(r["j"], r["alpha_j"]) for r in doc["rows"]]
    assert [j for j, _ in rows] == list(range(3, 31))
    assert all(0.0 < alpha <= 1.0 for _, alpha in rows)


def test_ladder_reference_below_float_resolution_exits_2(tmp_path, capsys):
    # 2^-1074 is the smallest positive double: a level-1075 cell has no
    # float side
    argv = (
        "pixelation-convergence", "f0=misaligned_f0_2d", "g0=misaligned_g0_2d",
        "levels=3-30", "j_ref=1075", "--out", str(tmp_path),
    )
    assert within_a_second(run_cli, *argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError" and payload["field"] == "j_ref"
    assert not any(tmp_path.iterdir())


def test_single_break_catalog_is_builtin(tmp_path):
    code = run_cli(
        "pixelation-convergence",
        "f0=uniform1d",
        "g0=single_break_g0_1d",
        "levels=2-6",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    rows = read_rows(tmp_path / "ladder.csv")
    assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5", "6"]
    assert all(float(r[1]) <= 1.0 for r in rows[1:])


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


# level 6 in 2-D has 4,096 cells, several write blocks; the staggered pair
# holds more than 1,000 distinct values in each of 16 blocks' worth of cells,
# and at level 5 the 32 x 32 staggered pair has a class, and a run, per cell
DENSITY_CASES = [
    ("uniform1d", "g01_1d", 3),
    ("uniform2d", "g02_2d", 3),
    ("uniform2d", "g02_2d", 6),
    ("misaligned_f0_2d", "misaligned_g0_2d", 6),
    ("staggered", "staggered", 7),
    ("staggered32", "staggered32", 5),
]


def runs_of_one_cell(catalogs, level):
    """Whether every class run of the grid is a single cell."""
    runs = _class_runs(_catalog_state(*catalogs, level).space)
    return all(n == 1 for _, _, lengths in runs for n in lengths)


# CSV frames are written in lockstep groups of up to _FRAMES_PER_GROUP:
# the last case takes three groups, the last one partial
CSV_FRAME_CASES = [(*case, 4) for case in DENSITY_CASES] + [
    ("uniform2d", "g02_2d", 3, 2 * _FRAMES_PER_GROUP + 5)
]


@pytest.mark.parametrize(
    "f0, g0, level, n_frames",
    CSV_FRAME_CASES,
    ids=[f"{f0}-{g0}-{level}" + (f"-{n}_frames" if n != 4 else "")
         for f0, g0, level, n in CSV_FRAME_CASES],
)
def test_density_csv_frames_match_csv_writer(tmp_path, f0, g0, level, n_frames):
    tokens, (f0_cat, g0_cat) = catalog_pair(f0, g0, tmp_path)
    if f0 == "staggered32":
        assert runs_of_one_cell((f0_cat, g0_cat), level)
    argv = ("density-geodesic", f"f0={tokens[0]}", f"g0={tokens[1]}",
            f"level={level}", f"n_frames={n_frames}")
    assert run_cli(*argv, "t_end=3pi/4", "--out", str(tmp_path)) == 0
    assert len(list(tmp_path.glob("frame_*.csv"))) == n_frames
    state = flow_state(f0_cat, g0_cat, level)
    grid = state.space
    header = (
        ["cell_index"]
        + [f"x_center_{d + 1}" for d in range(grid.dimension)]
        + ["f_value"]
    )
    centers = grid.centers()
    for k, t in enumerate(np.linspace(0.0, 3.0 * math.pi / 4.0, n_frames)):
        values = density_at(state, t).values
        if f0 == "staggered" and k:
            assert len(np.unique(values)) > 1000
        rows = ([i, *centers[i], values[i]] for i in range(grid.cell_count))
        expected = csv_writer_bytes(header, rows)
        assert (tmp_path / f"frame_{k:02d}.csv").read_bytes() == expected


# plus 1-D rows longer than a write block, whose runs are cut at block ends
# or start on one
@pytest.mark.parametrize(
    "f0, g0, level",
    DENSITY_CASES[2:] + [("uniform1d", "g01_1d", 12), ("misaligned_f0_1d", "misaligned_g0_1d", 11)],
)
def test_density_json_matches_json_dump(tmp_path, f0, g0, level):
    tokens, (f0_cat, g0_cat) = catalog_pair(f0, g0, tmp_path)
    if f0 == "staggered32":  # each run is its class's text once, no repeat
        assert runs_of_one_cell((f0_cat, g0_cat), level)
    pairs = {"f0": tokens[0], "g0": tokens[1], "level": str(level),
             "n_frames": "4", "t_end": "3pi/4"}
    argv = [f"{k}={v}" for k, v in pairs.items()]
    assert run_cli("density-geodesic", *argv, "--format", "json",
                   "--out", str(tmp_path)) == 0
    state = flow_state(f0_cat, g0_cat, level)
    obj = {
        "config": validate_config("density-geodesic", pairs, tmp_path, "json").echo,
        "space": {"kind": "dyadic", "dimension": state.space.dimension, "level": level},
        "alpha": state.alpha,
        "beta": state.beta,
        "frames": {
            repr(float(t)): density_at(state, t).values
            for t in np.linspace(0.0, 3.0 * math.pi / 4.0, 4)
        },
    }
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        json.dump(obj, fh, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
    assert (tmp_path / "density_geodesic.json").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("f0, g0, level", DENSITY_CASES)
def test_class_frames_match_density_at(tmp_path, f0, g0, level):
    _, catalogs = catalog_pair(f0, g0, tmp_path)
    state = flow_state(*catalogs, level)
    classes = _catalog_state(*catalogs, level)
    inverse = classes.space.cell_classes()
    grid = state.space
    # each class weighs its cell count times the cell weight, exactly
    assert np.array_equal(
        classes.space.weights, np.bincount(inverse) * grid.cell_weight
    )
    assert float(np.sum(classes.space.weights)) == 1.0
    # the class state is the per-cell state, bit for bit
    for name in ("f0", "g0", "alpha", "beta"):
        got = getattr(classes, name)[inverse]
        assert np.array_equal(got.view(np.int64), getattr(state, name).view(np.int64))
    shared = False
    for k, t in enumerate(np.linspace(0.0, 3.0 * math.pi / 4.0, 4)):
        values = density_at(classes, t).values
        expected = density_at(state, t).values
        assert np.array_equal(values[inverse].view(np.int64), expected.view(np.int64))
        if f0 == "staggered" and k:
            assert len(np.unique(expected)) > 1000
        shared |= len(np.unique(values.view(np.int64))) < values.size
    if f0.startswith("uniform"):
        # at t = 0 the classes +-z of a uniform f0 share the value
        # (1 + z^2) cos^2(atan z), though their beta differ
        assert shared


def reference_frame_chunks(state, t, chunk=4096):
    """A frame's CSV bytes after the header, cell by cell: the index and
    center columns, then %.17g of the cell's class value, CRLF-terminated."""
    grid = state.space.grid
    values = density_at(state, t).values[state.space.cell_classes()]
    axis = np.array(["%.17g" % x for x in grid.axis_centers().tolist()], dtype=object)
    shape = (grid.side_count,) * grid.dimension
    line = "%d" + ",%s" * grid.dimension + ",%.17g\r\n"
    for s in range(0, grid.cell_count, chunk):
        cells = np.arange(s, min(s + chunk, grid.cell_count))
        centers = [axis[k] for k in np.unravel_index(cells, shape)]
        columns = [cells.astype(object), *centers, values[cells].astype(object)]
        items = np.column_stack(columns).ravel().tolist()
        yield (line * cells.size % tuple(items)).encode()


# aligned 2-D runs (levels 8 and 10), whole-row classes (misaligned 2-D),
# runs of about 7 cells (staggered), single rows longer than a write block
# whose runs are cut at block ends or start on one (1-D levels 11 and 12),
# and a grid smaller than one block
RUN_CASES = [
    ("uniform2d", "g01_2d", 8),
    ("uniform2d", "g01_2d", 10),
    ("misaligned_f0_2d", "misaligned_g0_2d", 8),
    ("staggered", "staggered", 8),
    ("uniform1d", "g01_1d", 12),
    ("misaligned_f0_1d", "misaligned_g0_1d", 11),
    ("uniform2d", "g02_2d", 3),
]


@pytest.mark.parametrize("f0, g0, level", RUN_CASES)
def test_density_csv_runs_match_per_cell_reference(tmp_path, f0, g0, level):
    tokens, catalogs = catalog_pair(f0, g0, tmp_path)
    argv = ("density-geodesic", f"f0={tokens[0]}", f"g0={tokens[1]}",
            f"level={level}", "n_frames=2", "t_end=3pi/4")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    state = _catalog_state(*catalogs, level)
    grid = state.space.grid
    runs = _class_runs(state.space)
    lines = [sum(lengths) for _, _, lengths in runs]
    assert sum(lines) == grid.cell_count
    # the runs tile the cells in order
    starts = [a for _, block_starts, _ in runs for a in block_starts]
    ends = [a + n for _, block_starts, lengths in runs for a, n in zip(block_starts, lengths)]
    assert starts == [0] + ends[:-1]
    assert all(n == VALUES_PER_BLOCK for n in lines[:-1]) and lines[-1] <= VALUES_PER_BLOCK
    header = ",".join(
        ["cell_index", *(f"x_center_{d + 1}" for d in range(grid.dimension)), "f_value"]
    )
    for k, t in enumerate(np.linspace(0.0, 3.0 * math.pi / 4.0, 2)):
        with open(tmp_path / f"frame_{k:02d}.csv", "rb") as fh:
            assert fh.readline() == header.encode() + b"\r\n"
            for expected in reference_frame_chunks(state, t):
                assert fh.read(len(expected)) == expected
            assert fh.read() == b""


def test_frame_runs_are_cut_at_block_ends():
    # 1-D level 12: class edges 0, 512, 1024, 2048, 4096 and 1,024-line blocks
    catalogs = BUILTIN_CATALOGS["uniform1d"](), BUILTIN_CATALOGS["g01_1d"]()
    state = _catalog_state(*catalogs, 12)
    assert VALUES_PER_BLOCK == 1024 and state.space.edges == ((0, 512, 1024, 2048, 4096),)
    blocks = _class_runs(state.space)
    runs = [[(c, n) for c, _, n in zip(*block)] for block in blocks]
    # class 2 starts on a block boundary; class 3 spans two blocks
    assert runs == [[(0, 512), (1, 512)], [(2, 1024)], [(3, 1024)], [(3, 1024)]]
    assert blocks[3][1] == [3072]
    # the run texts are built a block at a time, as the frames are written
    texts = list(_csv_run_texts(state.space.grid, blocks))
    assert [[t.count(b"\0") for t in block] for block in texts] == [
        [n for _, n in block] for block in runs
    ]
    assert texts[3][0].startswith(b"3072,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_at_is_called_once_per_frame(tmp_path, monkeypatch, fmt):
    # perfbench/spans.py times frames by wrapping frgeo.cli.density_at
    calls = []
    monkeypatch.setattr(
        "frgeo.cli.density_at", lambda state, t: calls.append(t) or density_at(state, t)
    )
    argv = ("density-geodesic", "f0=uniform2d", "g0=g02_2d", "level=4", "n_frames=5")
    assert run_cli(*argv, "--format", fmt, "--out", str(tmp_path)) == 0
    assert calls == np.linspace(0.0, math.pi, 5).tolist()


def test_distinct_texts_match_per_value_formatting():
    tiny = 5e-324
    cases = [
        np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
        np.array([tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308]),
        np.nextafter(1.0, [0.0, 2.0, 0.0, 2.0, 1.0]),
        np.array([0.1, np.nextafter(0.1, 1.0), np.nextafter(0.1, 0.0), 0.1]),
        np.full(3000, math.pi / 3),  # a single value over several blocks
        np.arange(2500) / 7.0 - 100.0,  # all distinct over several blocks
        np.array([1e308, -1e-300, 123456789.0, 1e16, 0.5]),
    ]
    for values in cases:
        for texts_of, fmt in ((_csv_floats, "%.17g".__mod__), (_json_floats, repr)):
            assert texts_of(values.tolist()) == [fmt(x) for x in values.tolist()]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("tau=1", "n_times=7"),
        ("tau_count=2", "n_times=341"),  # one JSON block of rows
        ("tau_count=2", "n_times=342"),  # and one row more
        ("theta0=0.1,0.15,0.2,0.25,0.1", "w_raw=1,-0.5,0.25,-0.75,0.5",
         "t_end=0.5", "n_times=205"),
        ("tau=1", "t_end=5e-324", "n_times=5"),  # equal times share a frame
        ("tau=1", "t_end=1e-321", "n_times=500"),
    ],
    ids=["tau", "one_block", "block_plus_one", "n5", "subnormal", "subnormal_500"],
)
def test_sweep_json_matches_json_dump(tmp_path, argv):
    # the frames object, formerly {repr(t): row} dumped by json, is now
    # formatted a block of rows at a time from the closed form
    assert run_cli("simplex-geodesic", *argv, "--format", "json",
                   "--out", str(tmp_path)) == 0
    cfg = validate_config(
        "simplex-geodesic", dict(a.split("=") for a in argv), tmp_path, "json"
    )
    p0 = SimplexPoint(cfg.params["theta0"])
    times = np.linspace(0.0, cfg.params["t_end"], cfg.params["n_times"])
    for k, (tau, v) in enumerate(cfg.params["velocities"]):
        y, _ = simplex_flow_samples(p0, v, times)
        state = frgeo.simplex_state(p0, v)
        obj = {
            "config": {**cfg.echo, "trajectory_index": k, "tau": tau},
            "space": {"kind": "counting", "n_points": p0.n + 1},
            "alpha": state.alpha,
            "beta": state.beta,
            "frames": {repr(float(t)): y[s] for s, t in enumerate(times)},
        }
        expected = json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"
        path = tmp_path / _indexed_name("trajectory", k, cfg.params["tau_count"] or 1, "json")
        assert path.read_bytes() == expected.encode()


def test_sweep_json_frames_stay_block_bounded(tmp_path):
    # 10^5 frames: a dict of repr(t) keys and row views peaked at 23.8 MiB
    # for a 10.8 MiB file; formatted a block of rows at a time, about 1 MiB
    args = ("simplex-geodesic", "tau=1", "n_times=100000", "--format", "json",
            "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_sweep_csv_holds_one_block_per_trajectory(tmp_path):
    # 12 trajectories of 5,000 samples: held at once, their positions
    # peaked at 1.64 MiB; checked, then evaluated as written, about 0.3 MiB
    args = ("simplex-geodesic", "tau_count=12", "n_times=5000", "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20
    assert len(list(tmp_path.glob("trajectory_*.csv"))) == 12


def test_sweep_csv_holds_one_block_of_times(tmp_path):
    # 2 trajectories of 10^5 samples, one lockstep group of files: the t
    # column's text, held for every block, peaked at 4.14 MiB; written in
    # lockstep, a block's text at a time, the 0.76 MiB time grid is most of
    # the 0.86 MiB peak
    args = ("simplex-geodesic", "tau_count=2", "n_times=100000", "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    assert len(list(tmp_path.glob("trajectory_*.csv"))) == 2


def test_sweep_csv_files_share_the_time_column(tmp_path):
    # the t column's text is formatted once and filled into every file
    assert run_cli("simplex-geodesic", "tau_count=3", "n_times=1500", "t_end=0.8",
                   "--out", str(tmp_path)) == 0
    p0 = SimplexPoint(np.array([1.0 / 3.0, 1.0 / 3.0]))
    times = np.linspace(0.0, 0.8, 1500)
    for k in range(3):
        v = TangentVector(ellipse_param_n2(2.0 * math.pi * k / 3))
        y, _ = simplex_flow_samples(p0, v, times)
        expected = csv_writer_bytes(
            ["t", "theta_1", "theta_2"], ([t, *y[s, :2]] for s, t in enumerate(times))
        )
        assert (tmp_path / f"trajectory_{k:02d}.csv").read_bytes() == expected


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


@pytest.mark.parametrize(
    "shape", [(10001, 5), (1, 1), (1025, 1), (3, 0), (0, 3)], ids=str
)
def test_2d_float_array_json_matches_json_dumps(shape):
    rng = np.random.default_rng(shape[0] + 7 * shape[1])
    matrix = rng.standard_normal(shape)
    chunks = list(_json_chunks(matrix, ""))
    assert "".join(chunks) == json.dumps(matrix.tolist(), indent=2)
    if matrix.size:
        # one encoder call per block of whole rows, then the closing bracket
        rows = max(1, VALUES_PER_BLOCK // shape[1])
        assert len(chunks) == -(-shape[0] // rows) + 1
    # nested in a dict and in a list, at deeper indents
    for obj in ({"m": matrix, "after": [matrix, 1.5]}, [matrix, {"m": matrix[:2]}]):
        text = "".join(_json_chunks(obj, ""))
        assert text == json.dumps(obj, indent=2, default=np.ndarray.tolist)


def test_2d_float_array_json_keeps_every_float_text():
    special = np.array([
        [-0.0, 0.0, 5e-324, -5e-324],
        [2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, -1e-300],
        [1e300, -1e300, 1.7976931348623157e308, 0.1],
    ])
    for obj in (special, special.T, {"s": special}, [special, special[1:]]):
        text = "".join(_json_chunks(obj, ""))
        assert text == json.dumps(obj, indent=2, default=np.ndarray.tolist)
    assert json.loads("".join(_json_chunks(special, ""))) == special.tolist()


def _non_finite(shape, dtype):
    """Seeded floats of one dtype with NaN, inf and -inf at the first
    item, the last item, and the items on both sides of the first block
    boundary."""
    rng = np.random.default_rng(shape[0] + 7 * shape[-1])
    values = rng.standard_normal(shape).astype(dtype)
    flat = values.reshape(-1)
    per_block = VALUES_PER_BLOCK if values.ndim == 1 else (
        max(1, VALUES_PER_BLOCK // shape[1]) * shape[1]
    )
    edge = min(per_block, flat.size - 1)
    for k, x in zip((0, edge - 1, edge, -1), (np.nan, np.inf, -np.inf, np.nan)):
        flat[k] = x
    return values


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f8", "f4"])
@pytest.mark.parametrize(
    "shape", [(3,), (1025,), (3000,), (2, 2), (513, 2), (1025, 1), (700, 3)], ids=str
)
def test_float_array_json_with_nan_inf_matches_json_dumps(shape, dtype):
    values = _non_finite(shape, dtype)
    assert values.dtype == dtype and not np.all(np.isfinite(values))
    for obj in (values, {"v": values, "after": [values, -np.inf]}, [values[:1], values]):
        text = "".join(_json_chunks(obj, ""))
        assert text == json.dumps(obj, indent=2, default=np.ndarray.tolist)


@pytest.mark.parametrize(
    "shape", [(5,), (1025,), (3, 1), (513, 2), (10001, 5)], ids=str
)
def test_float32_array_json_matches_json_dumps(shape):
    rng = np.random.default_rng(shape[0])
    values = (rng.standard_normal(shape) * 1e30).astype(np.float32)
    values.reshape(-1)[:3] = [-0.0, np.float32(1e-45), np.finfo(np.float32).max]
    for obj in (values, {"v": values, "w": [values]}):
        text = "".join(_json_chunks(obj, ""))
        assert text == json.dumps(obj, indent=2, default=np.ndarray.tolist)


def test_2d_int_array_json_keeps_the_generic_path():
    ints = np.arange(-6, 6).reshape(4, 3)
    chunks = list(_json_chunks(ints, ""))
    assert "".join(chunks) == json.dumps(ints.tolist(), indent=2)


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


def test_density_csv_texts_stay_block_bounded(tmp_path):
    # 12 CSV frames of 65,536 cells; the peak is about 0.5 MiB (about 2.4 MiB
    # while every cell's index and center text was held).  Holding a whole
    # frame's text, one str per cell or the frame's CSV text, adds 3.5 to
    # 4.5 MiB
    args = ("density-geodesic", "f0=uniform2d", "g0=g01_2d", "level=8",
            "n_frames=12", "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_density_csv_writer_holds_no_grid_sized_text(tmp_path):
    # 2-D level 9: 262,144 cells, whose index and center texts take about
    # 9 MiB; the frames are written a block of run texts at a time, and the
    # peak is about 0.6 MiB
    args = ("density-geodesic", "f0=uniform2d", "g0=g01_2d", "level=9",
            "n_frames=2", "--out", str(tmp_path))
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# prints the growth of a peak RSS (KiB) over one density-geodesic run, in a
# forked process: its peak starts from this process's RSS at the fork, where
# this one's starts from the peak of the test process that started it
_RSS_GROWTH = """
import os, resource, sys
from frgeo.cli import run_experiment, validate_config
fmt, out = sys.argv[1:]
pairs = {"f0": "uniform2d", "g0": "g01_2d", "level": "9", "n_frames": "2"}
cfg = validate_config("density-geodesic", pairs, out, fmt)
if os.fork() == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_experiment(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)
    os._exit(0)
sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_density_csv_peak_rss_follows_json(tmp_path):
    # tracemalloc cannot see heap fragmentation, so a child's peak RSS is
    # read.  Both grow by about 4 MB; holding the grid's index and center
    # texts made the CSV run's grow by about 13.5 MB
    src = Path(frgeo.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    growth = {}
    for fmt in ("csv", "json"):
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_GROWTH, fmt, str(tmp_path / fmt)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        growth[fmt] = int(proc.stdout) / 1024
    assert growth["csv"] < growth["json"] + 2, growth


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


@pytest.mark.parametrize("dimension, levels", [(1, (3, 40)), (2, (3, 26))])
def test_misaligned_alpha_j_in_closed_form(tmp_path, dimension, levels):
    # the built-in misaligned pair: 1 - alpha_j is 2^(1-j) at odd j and
    # 2^(3-j)/5 at even j, and alpha_j is that fraction correctly rounded
    assert run_cli("pixelation-convergence", f"f0=misaligned_f0_{dimension}d",
                   f"g0=misaligned_g0_{dimension}d", "levels=%d-%d" % levels,
                   "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "ladder.csv")[1:]
    assert [int(r[0]) for r in rows] == list(range(levels[0], levels[1] + 1))
    for j, alpha, *_ in rows:
        j = int(j)
        gap = Fraction(2) ** (1 - j) if j % 2 else Fraction(2) ** (3 - j) / 5
        assert float(alpha) == float(1 - gap), j


@pytest.mark.parametrize("dimension, levels", [(1, (3, 40)), (2, (3, 26))])
def test_misaligned_weak_limit_rates(tmp_path, dimension, levels):
    # 1 - alpha_j alternates with the parity of j, so the rate pairs levels
    # of one parity: r_j = log2(e_j / e_{j+2}) / 2
    assert run_cli("pixelation-convergence", f"f0=misaligned_f0_{dimension}d",
                   f"g0=misaligned_g0_{dimension}d", "levels=%d-%d" % levels,
                   "phi_index=0", "--out", str(tmp_path)) == 0
    with open(tmp_path / "ladder.csv", newline="") as fh:
        rows = {int(r["j"]): r for r in csv.DictReader(fh)}

    def rates(column, js):
        return [math.log2(float(rows[j][column]) / float(rows[j + 2][column])) / 2
                for j in js]

    # second order.  The errors are differences of sums near 1, rounded to
    # about 1e-16: at e_20, about 4e-13, that moves a rate by about 2e-4
    # (measured at most 1.7e-4), and past j = 20 the errors near 1e-14
    for column in ("e_f", "weak_error_t0"):
        assert all(abs(r - 2) < 1e-3 for r in rates(column, range(4, 19))), column
    # first order.  A faster-decaying term still moves e_g's rate by 1.4% at
    # j = 10 and 0.5% at j = 11 (0.9946), less above; to j = 24 the errors
    # stay above 5e-10, far from rounding
    for column in ("e_g", "e_q", "weak_error_tpi2"):
        assert all(abs(r - 1) < 0.01 for r in rates(column, range(11, 23))), column


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


def oracle_stage_peak(tmp_path, monkeypatch, fmt):
    """The written file and the tracemalloc peak of one oracle-compare run
    (10^4 steps, n = 5) whose RK4 table is integrated before tracing starts
    (tracing its floats takes tens of seconds)."""
    pairs = {"theta0": "0.1,0.15,0.2,0.25,0.1", "w_raw": "1,-0.5,0.25,-0.75,0.5",
             "step": "5e-5", "t_end": "0.5"}
    cfg = validate_config("oracle-compare", pairs, tmp_path, fmt)
    p0 = SimplexPoint(cfg.params["theta0"])
    v = frgeo.ellipsoid_tangent(p0, cfg.params["w_raw"])
    traj = integrate_coupled(p0, v, IntegratorConfig(5e-5, 0.5))
    assert traj.times.size == 10_001
    monkeypatch.setattr("frgeo.cli.integrate_coupled", lambda *_: traj)
    tracemalloc.start()
    try:
        (path,) = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return path, peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_closed_form_and_writer_stay_block_bounded(tmp_path, monkeypatch, fmt):
    # whole-grid temporaries and a stacked copy of the CSV table peaked at
    # about 2.8 MiB
    path, peak = oracle_stage_peak(tmp_path, monkeypatch, fmt)
    assert peak < 1.5 * 2**20
    if fmt == "csv":
        assert len(read_rows(path)) == 10_002
    else:
        assert len(json.loads(path.read_text())["closed"]) == 10_001


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_compare_holds_no_closed_form_table(tmp_path, monkeypatch, fmt):
    # the closed form's (T, n + 1) positions and velocities took 0.92 of a
    # 0.98 MiB peak; evaluated a block at a time, for the check pass and
    # again for the writer, the peak is about 0.15 (CSV) and 0.23 MiB (JSON)
    _, peak = oracle_stage_peak(tmp_path, monkeypatch, fmt)
    assert peak < 0.4 * 2**20


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


# the files EXIT_CONTRACT's {sub}, {big} and {bad} stand for, as (file name,
# bytes): catalogs with f0 = 1e-320 on [0, 1/2), whose amplitude squares to 0
# beside g01_1d, and g0 = +-1e300, whose energy g0^2/f0 is 1e600, beyond the
# floats, and a config file that is not UTF-8.  benchmarks/same_behaviour.py
# reads both tables as literals
EXIT_FILES = {
    "sub": ("sub.cat", b"1e-320 0 1/2\n2 1/2 1\n"),
    "big": ("big.cat", b"1e300 0 1/2\n-1e300 1/2 1\n"),
    "bad": ("bad.cfg", b"n_times = 5 # \xe9\n"),
}

# (argv, exit code, error, field or condition, decided by validate_config)
EXIT_CONTRACT = {
    "theta0_band_simplex": (
        ("simplex-geodesic", "theta0=0.5,0.499999999999", "w_raw=1,-1"),
        2, "ConfigError", "theta0", True),
    "theta0_band_oracle": (
        ("oracle-compare", "theta0=0.5,0.499999999999", "w_raw=1,-1"),
        2, "ConfigError", "theta0", True),
    "tau_off_barycenter": (
        ("simplex-geodesic", "theta0=0.2,0.3", "tau=1"), 2, "ConfigError", "tau", True),
    "tau_and_w_raw": (
        ("oracle-compare", "tau=1", "w_raw=1,-1"), 2, "ConfigError", "w_raw", True),
    "zero_w_raw": (
        ("simplex-geodesic", "w_raw=0,0"), 3, "ZeroDirection", None, True),
    "phi_index_12": (
        ("pixelation-convergence", "phi_index=12", "levels=3"),
        2, "ConfigError", "phi_index", True),
    "t_end_1e6_csv": (
        ("density-geodesic", "t_end=1e6", "level=3"), 2, "ConfigError", "t_end", False),
    "t_end_1e6_json": (
        ("density-geodesic", "t_end=1e6", "level=3", "--format", "json"),
        2, "ConfigError", "t_end", False),
    "simplex_t_end_1e300_csv": (
        ("simplex-geodesic", "tau=1", "t_end=1e300", "n_times=2"),
        2, "ConfigError", "t_end", False),
    "simplex_t_end_1e300_json": (
        ("simplex-geodesic", "tau=1", "t_end=1e300", "n_times=2", "--format", "json"),
        2, "ConfigError", "t_end", False),
    "sweep_t_end_1e5": (
        ("simplex-geodesic", "t_end=1e5"), 2, "ConfigError", "t_end", False),
    "subnormal_f0_density": (
        ("density-geodesic", "f0={sub}", "g0=g01_1d", "level=3"),
        2, "ConfigError", "f0", False),
    "subnormal_f0_moments": (
        ("moments", "f0={sub}", "g0=g01_1d", "level=3"), 2, "ConfigError", "f0", False),
    "config_not_utf8": (
        ("simplex-geodesic", "--config", "{bad}"), 2, "ConfigError", "config", True),
    "theta0_empty_entry": (
        ("simplex-geodesic", "theta0=0.2,,0.3", "w_raw=1,-1"),
        2, "ConfigError", "theta0", True),
    "theta0_empty_entry_w_raw_3": (
        ("simplex-geodesic", "theta0=0.2,,0.3", "w_raw=1,0,-1"),
        2, "ConfigError", "theta0", True),
    "w_raw_trailing_comma": (
        ("oracle-compare", "w_raw=1,-1,"), 2, "ConfigError", "w_raw", True),
    "huge_g0_ladder": (
        ("pixelation-convergence", "f0=uniform1d", "g0={big}", "levels=3"),
        3, "HypothesisViolation", "unit-energy", False),
    "degenerate_velocity_level_2": (
        ("density-geodesic", "level=2"), 3, "DegenerateVelocity", None, False),
    "oracle_left_domain": (
        ("oracle-compare", "t_end=1.5"), 3, "LeftDomain", None, False),
}


@pytest.mark.parametrize("case", sorted(EXIT_CONTRACT))
def test_errors_exit_with_one_json_object_and_no_file(tmp_path, capsys, case):
    argv, code, error, name, validated = EXIT_CONTRACT[case]
    files = {key: tmp_path / file for key, (file, _) in EXIT_FILES.items()}
    for key, (_, data) in EXIT_FILES.items():
        files[key].write_bytes(data)
    out = tmp_path / "out"
    argv = [a.format(**files) for a in argv]
    assert run_cli(*argv, "--out", str(out)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == error
    if name is not None:
        assert payload["condition" if error == "HypothesisViolation" else "field"] == name
    assert not out.exists() if validated else not any(out.iterdir())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_frames_past_the_mass_limit_name_the_first(tmp_path, capsys, fmt):
    # the default pair's frames lose mass from about t = 1e5: the first
    # failing frame is named before any file is opened
    out = tmp_path / "out"
    argv = ("density-geodesic", "t_end=1e6", "n_frames=12", "--format", fmt)
    assert run_cli(*argv, "--out", str(out)) == 2
    payload = stderr_payload(capsys)
    assert payload["field"] == "t_end"
    assert "t=90909.09090909091 " in payload["message"]
    assert "density integrates to 0.99999999999" in payload["message"]
    assert not any(out.iterdir())
    assert run_cli("density-geodesic", "t_end=1e4", "--format", fmt, "--out", str(out)) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_samples_past_the_mass_limit_name_the_first(tmp_path, capsys, fmt):
    # the simplex kinds check each sample's mass as density frames are
    # checked: the default sweep's samples drift from 1 by about 5e-12 at
    # t_end = 1e5, and by under 5e-13 at 1e4
    out = tmp_path / "out"
    argv = ("simplex-geodesic", "t_end=1e5", "--format", fmt)
    assert run_cli(*argv, "--out", str(out)) == 2
    payload = stderr_payload(capsys)
    assert payload["field"] == "t_end"
    assert "t=65656.56565656565 " in payload["message"]
    assert "density integrates to 1.00000000000" in payload["message"]
    assert not any(out.iterdir())
    assert run_cli("simplex-geodesic", "t_end=1e4", "--format", fmt, "--out", str(out)) == 0


def test_moments_keep_full_precision_at_a_large_t_end(tmp_path):
    # the three-term identity never forms t/2 - beta, so moments need no
    # mass limit.  The expected values are the curve of the run's own
    # projected (f0, g0), its three terms summed over the 64 cell centers
    # with mpmath at 60 digits, rounded to 17 digits
    assert run_cli("moments", "t_end=1e17", "n_times=3", "--out", str(tmp_path)) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "moments.csv").read_text())))
    values = np.array(rows[2:], dtype=float)
    expected = np.array([
        [5e16, 0.38769458731016349, 0.071718115653995576],
        [1e17, 0.16097456672029964, 0.016410986047983353],
    ])
    assert np.array_equal(values[:, 0], expected[:, 0])
    assert np.max(np.abs(values[:, 1:] - expected[:, 1:])) <= 1e-15
