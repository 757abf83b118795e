"""Command-line front end: experiment configuration, runs, CSV/JSON export.

Five experiment kinds are exposed as subcommands of ``frgeo``:

* ``simplex-geodesic``        closed-form simplex trajectories (single
                              velocity or a tau sweep from the barycenter)
* ``density-geodesic``        flowing grid density, one file per frame
* ``pixelation-convergence``  projection ladder summary for a catalog pair
* ``moments``                 mean/variance curves of a grid geodesic
* ``oracle-compare``          closed form vs fixed-step RK4, side by side

Configuration is a flat ``key = value`` text file (``--config PATH``; UTF-8,
a byte-order mark allowed, as in catalog files) plus ``key=value``
command-line overrides; every key must belong to the chosen subcommand, and
unknown or duplicate keys are rejected.  Numeric values accept plain
floats, exact fractions (``1/3``), and signed or unsigned multiples of pi
(``pi``, ``-pi/2``, ``3pi/4``); NaN, infinities and overflowing values are
rejected.  Vectors are comma lists with no empty entry.

Exit codes: 0 on success; 2 for a configuration error (a rejected key or
value, or a request too large to allocate); 3 for a domain failure of a
valid configuration (hitting the simplex boundary, degenerate projected
velocities, the ODE leaving its domain, ...).  Both errors print a single
JSON object to stderr and write no file.

``validate_config`` resolves a configuration into the library objects the
runners take (the start point, the velocities, the ladder's test function,
the RK4 configuration), so every error it finds comes before ``--out`` is
created.  Errors found at run time may leave an empty output directory: a
time grid or RK4 table too large to allocate, a projected f0 whose state
fails its checks, a ``t_end`` at which a sampled density frame or simplex
point is no longer a density (its mass off by more than 1e-12; ``moments``
has no such limit), and domain failures.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import GeneratorType
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .boxes import BoxFunction, load_catalog
from .catalogs import BUILTIN_CATALOGS
from .errors import (
    ConfigError,
    FrgeoError,
    InvalidCatalogFunction,
)
from .geodesics import (
    GeodesicState,
    density_at,
    ellipse_param_n2,
    ellipsoid_tangent,
    flow_blocks,
    geodesic_flow,
    normalize_velocity,
    positions_at,
    simplex_flow_samples,  # noqa: F401  (perfbench/spans.py wraps it by name)
    simplex_state,
    simplex_trajectory,  # noqa: F401  (perfbench/spans.py wraps it by name)
)
from .kernels import IntegratorConfig, integrate_coupled
from .moments import MomentCurve, moments
from .pixelation import (
    LADDER_FIELDS,
    PixelationLadder,
    TentFunction,
    build_ladder,
    ladder_summary_rows,
    project_pair,
    test_functions_1d,
    test_functions_2d,
)
from .simplex import BOUNDARY_FLOOR, SimplexPoint, TangentVector
from .spaces import VALUES_PER_BLOCK, CellClasses, DyadicGrid, block_rows

# CSV floats carry 17 significant digits and JSON floats are their repr, so
# re-importing loses nothing; the same configuration gives the same bytes
FLOAT_FMT = "%.17g"

# ---------------------------------------------------------------------------
# value parsing


_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>[0-9]+(?:\.[0-9]+)?)?\s*\*?\s*pi"
    r"(?:\s*/\s*(?P<den>[0-9]+(?:\.[0-9]+)?))?$",
    re.IGNORECASE,
)


def parse_number(token: str) -> float:
    """Finite float from a config token: plain, fraction ``a/b`` or pi-multiple.

    NaN and infinities, spelled out or reached by overflow (``1e400``),
    raise ``ValueError``: no experiment has a meaning for them.
    """
    token = token.strip()
    m = _PI_TOKEN.match(token)
    try:
        if m:
            num = float(m.group("sign") + (m.group("num") or "1"))
            den = float(m.group("den")) if m.group("den") else 1.0
            value = num * math.pi / den
        elif "/" in token:
            value = float(Fraction(token))
        else:
            value = float(token)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def _parse_vector(token: str) -> np.ndarray:
    parts = token.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty entry in {token!r}")
    return np.array([parse_number(p) for p in parts])


def _parse_levels(token: str) -> list[int]:
    """Grid levels, either ``3-8`` (inclusive range) or ``3,5,7``; the
    deepest has at most 2^62 cells per axis (``_check_cell_bits``)."""
    token = token.strip()
    m = re.match(r"^([0-9]+)\s*-\s*([0-9]+)$", token)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ValueError(f"empty level range {token!r}")
        levels = range(lo, hi + 1)
    else:
        levels = sorted({int(p) for p in token.split(",") if p.strip()})
    _check_cell_bits("levels", levels[-1] if levels else 0)  # a range before expanding it
    return list(levels)


def _parse_catalog(token: str) -> BoxFunction:
    token = token.strip()
    if token in BUILTIN_CATALOGS:
        return BUILTIN_CATALOGS[token]()
    path = Path(token)
    if not path.exists():
        known = ", ".join(sorted(BUILTIN_CATALOGS))
        raise ValueError(
            f"{token!r} is neither a built-in catalog ({known}) nor a file"
        )
    return load_catalog(path)


# ---------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class _Key:
    parse: Callable
    default: object
    doc: str


_COMMON_SIMPLEX_KEYS = {
    "theta0": _Key(_parse_vector, "1/3,1/3", "free simplex coordinates"),
    "tau": _Key(parse_number, None, "single ellipse parameter (barycenter n=2)"),
    "w_raw": _Key(_parse_vector, None, "raw direction, scaled to unit speed"),
}

KIND_KEYS: dict[str, dict[str, _Key]] = {
    "simplex-geodesic": {
        **_COMMON_SIMPLEX_KEYS,
        "tau_count": _Key(int, None, "tau sweep size (barycenter n=2)"),
        "t_end": _Key(parse_number, math.pi / 2, "last sample time"),
        "n_times": _Key(int, 100, "number of samples on [0, t_end]"),
    },
    "density-geodesic": {
        "f0": _Key(_parse_catalog, "uniform1d", "initial density catalog"),
        "g0": _Key(_parse_catalog, "g01_1d", "initial velocity catalog"),
        "level": _Key(int, 6, "dyadic grid level"),
        "t_end": _Key(parse_number, math.pi, "last frame time"),
        "n_frames": _Key(int, 12, "number of frames on [0, t_end]"),
    },
    "pixelation-convergence": {
        "f0": _Key(_parse_catalog, "misaligned_f0_1d", "density catalog"),
        "g0": _Key(_parse_catalog, "misaligned_g0_1d", "velocity catalog"),
        "levels": _Key(_parse_levels, "3-8", "ladder levels, e.g. 3-8 or 3,5,7"),
        "delta": _Key(Fraction, Fraction(1, 1000), "density floor"),
        "phi_index": _Key(int, 0, "index into the fixed test-function set"),
        "j_ref": _Key(int, None, "reference level (default: max + 4, at most 1074)"),
    },
    "moments": {
        "f0": _Key(_parse_catalog, "uniform1d", "initial density catalog"),
        "g0": _Key(_parse_catalog, "g01_1d", "initial velocity catalog"),
        "level": _Key(int, 6, "dyadic grid level"),
        "t_end": _Key(parse_number, math.pi, "last sample time"),
        "n_times": _Key(int, 100, "number of samples on [0, t_end]"),
    },
    "oracle-compare": {
        **_COMMON_SIMPLEX_KEYS,
        "step": _Key(parse_number, 1e-3, "RK4 step size"),
        "t_end": _Key(parse_number, 1.0, "integration horizon"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: kind, typed parameters (with the
    library objects resolved from them), output plan."""

    kind: str
    params: dict
    echo: dict  # JSON-safe copy of the resolved parameters
    out_dir: Path
    fmt: str


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` pairs; ``#`` comments; duplicates rejected."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                "config", f"{path}:{lineno}: expected key = value, got {raw!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(key, f"duplicate key at {path}:{lineno}")
        pairs[key] = value.strip()
    return pairs


def _merge_overrides(pairs: dict[str, str], overrides: list[str]) -> dict[str, str]:
    seen: set[str] = set()
    merged = dict(pairs)
    for token in overrides:
        if "=" not in token:
            raise ConfigError(token, "neither a key=value override nor a known option")
        key, _, value = token.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(key, "duplicate override on the command line")
        seen.add(key)
        merged[key] = value.strip()
    return merged


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def validate_config(
    kind: str, pairs: dict[str, str], out_dir: str | Path, fmt: str
) -> ExperimentConfig:
    """Parse and type-check raw key/value pairs against the kind's schema,
    and resolve them into the library objects the runners take
    (``_check_preconditions``)."""
    schema = KIND_KEYS[kind]
    for key in pairs:
        if key not in schema:
            raise ConfigError(
                key, f"unknown key for {kind} (known: {', '.join(sorted(schema))})"
            )
    params: dict = {}
    echo: dict = {"kind": kind, "format": fmt}
    for key, spec in schema.items():
        token = pairs.get(key)
        if token is None and isinstance(spec.default, str):
            token = spec.default
        if token is not None:
            try:
                value = spec.parse(token)
            except (ValueError, ZeroDivisionError, InvalidCatalogFunction, OSError) as exc:
                raise ConfigError(key, f"cannot parse {token!r}: {exc}")
        else:
            value = spec.default
        params[key] = value
        echo[key] = token if isinstance(value, BoxFunction) else _jsonable(value)
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, not {fmt!r}")
    _check_preconditions(params)
    return ExperimentConfig(kind, params, echo, Path(out_dir), fmt)


def _check_preconditions(p: dict) -> None:
    """Reject out-of-domain numbers before any computation starts, and add
    to ``p`` the library objects the runners take, each built once by
    its own constructor: the start point ``p0``, the RK4 ``integrator``
    and, once every other check has passed, the simplex kinds'
    ``velocities`` (``_resolve_velocities``) and the ladder's test function
    ``phi``."""
    if "theta0" in p:
        try:
            p["p0"] = SimplexPoint(p["theta0"])
        except ValueError:
            raise ConfigError("theta0", "coordinates must be interior to the simplex")
        if p["w_raw"] is not None and p["w_raw"].size != p["p0"].n:
            raise ConfigError(
                "w_raw", f"has {p['w_raw'].size} entries, theta0 has {p['p0'].n}"
            )
    if "t_end" in p and not p["t_end"] > 0.0:
        raise ConfigError("t_end", "must be positive")
    if "n_times" in p and p["n_times"] < 2:
        raise ConfigError("n_times", "need at least 2 samples")
    if "n_frames" in p and p["n_frames"] < 2:
        raise ConfigError("n_frames", "need at least 2 frames")
    if "step" in p and not p["step"] > 0.0:
        raise ConfigError("step", "must be positive")
    if "step" in p and "t_end" in p:
        p["integrator"] = IntegratorConfig(p["step"], p["t_end"])
        try:  # counting the steps checks that their time grid can exist
            p["integrator"].n_steps
        except ValueError as exc:
            ratio = p["t_end"] / p["step"]
            raise ConfigError("step", f"{exc} (t_end / step = {ratio:.3g})")
    if "level" in p:
        if p["level"] < 1:
            raise ConfigError("level", "grid level must be >= 1")
        # density-geodesic (with frames) indexes cells; moments only axes
        indexed_axes = p["f0"].dimension if "n_frames" in p else 1
        _check_cell_bits("level", indexed_axes * p["level"])
    if "levels" in p:
        if not p["levels"]:
            raise ConfigError("levels", "need at least one level")
        if min(p["levels"]) < 1:
            raise ConfigError("levels", "grid levels must be >= 1")
    if "delta" in p and not p["delta"] > 0:
        raise ConfigError("delta", "density floor must be positive")
    if "j_ref" in p and p["j_ref"] is not None and "levels" in p:
        if p["j_ref"] <= max(p["levels"]):
            raise ConfigError("j_ref", "must exceed the deepest ladder level")
        if p["j_ref"] > 1074:  # 2^-1074 is the smallest positive double
            raise ConfigError("j_ref", "a reference cell below 2^-1074 has no float side")
    if "phi_index" in p and p["phi_index"] < 0:
        raise ConfigError("phi_index", "must be non-negative")
    if "tau_count" in p and p["tau_count"] is not None and p["tau_count"] < 1:
        raise ConfigError("tau_count", "sweep needs at least one value")
    if "f0" in p and "g0" in p:
        if p["f0"].dimension != p["g0"].dimension:
            raise ConfigError("g0", "catalog dimensions of f0 and g0 differ")
    if "p0" in p:
        p["velocities"] = _resolve_velocities(p)
    if "phi_index" in p:
        # catalogs are 1-D or 2-D (``load_catalog`` reads 3 or 5 columns)
        dimension = p["f0"].dimension
        phis = test_functions_1d() if dimension == 1 else test_functions_2d()
        if p["phi_index"] >= len(phis):
            raise ConfigError(
                "phi_index", f"only {len(phis)} test functions in dimension {dimension}"
            )
        p["phi"] = phis[p["phi_index"]]


def _check_cell_bits(key: str, bits: int) -> None:
    """ConfigError on ``key`` if 2^bits grid cells (a grid's, or an axis's)
    exceed the largest numpy index, 2^(index bits) - 1."""
    if bits >= np.iinfo(np.intp).max.bit_length():
        raise ConfigError(key, f"2^{bits} grid cells are more than numpy can index")


@contextmanager
def _sized_by(key: str) -> Iterator[None]:
    """A MemoryError from the time grid (or RK4 table) that ``key`` sizes,
    or from an evaluation over it, as a ConfigError on ``key``; every kind
    allocates the grid before writing."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(key, f"the time grid does not fit in memory: {exc}")


def _checked_blocks(*args) -> Iterator[tuple[int, np.ndarray]]:
    """``flow_blocks(*args)``, with a sampled row that is no density (its phases
    past float precision at a large ``t_end``) as a ConfigError on ``t_end``."""
    try:
        yield from flow_blocks(*args)
    except ValueError as exc:
        raise ConfigError("t_end", str(exc))


# ---------------------------------------------------------------------------
# velocity resolution (simplex kinds)


def _resolve_velocities(params: dict) -> list[tuple[float | None, TangentVector]]:
    """(tau, velocity) pairs at ``params["p0"]`` from exactly one of tau /
    tau_count / w_raw.

    The tau parametrization covers the unit Fisher sphere at the barycenter
    of the 2-simplex only; anywhere else a raw direction must be given.
    With nothing specified, simplex-geodesic (the kind with a tau_count
    key) sweeps 12 values of tau and oracle-compare takes tau = 1.
    """
    p0 = params["p0"]
    given = [k for k in ("tau", "tau_count", "w_raw") if params.get(k) is not None]
    if len(given) > 1:
        raise ConfigError(given[1], "give only one of tau, tau_count, w_raw")
    choice = given[0] if given else ("tau_count" if "tau_count" in params else "tau")
    if choice == "w_raw":
        return [(None, ellipsoid_tangent(p0, params["w_raw"]))]
    # 1e-12 admits 1/3 typed as a decimal of 12 or more digits
    if not (p0.n == 2 and np.allclose(p0.theta, 1.0 / 3.0, rtol=0.0, atol=1e-12)):
        raise ConfigError(
            choice,
            "tau parametrizes velocities at theta0 = (1/3, 1/3) only; use w_raw elsewhere",
        )
    if choice == "tau":
        taus = [1.0 if params["tau"] is None else params["tau"]]
    else:  # tau_count >= 1 is checked
        count = params["tau_count"] or 12
        taus = [2.0 * math.pi * k / count for k in range(count)]
    return [(t, TangentVector(ellipse_param_n2(t))) for t in taus]


# ---------------------------------------------------------------------------
# output helpers


# CSV files open at once: density frames, or simplex sweep trajectories.  A
# group of files is written in lockstep, each block's shared text (run
# texts, or the t column) built once for all of them, so the default 12
# frames or trajectories make one group; the texts held grow with the
# group, and the open files stay far below the usual limit of 1,024
_FRAMES_PER_GROUP = 32


@contextmanager
def _csv_files(paths: list[Path], header: list[str]) -> Iterator[list[BinaryIO]]:
    """CSV files opened in binary mode, each holding the header line: every
    CSV file is opened, and its header written, here.

    What is written after it is ASCII bytes of CRLF-terminated lines: the
    bytes ``csv.writer`` writes, as no number or column name needs quoting.
    """
    line = (",".join(header) + "\r\n").encode()
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh in files:
            fh.write(line)
        yield files


@dataclass(frozen=True)
class _ClosedForm:
    """The first ``width`` coordinates of ``state``'s closed form at
    ``times``: a (T, width) float table whose rows are evaluated
    (``positions_at``) each time a slice of them is taken, so no table is
    held.  The writers take a block of rows at a time: ``_write_table`` as
    columns, ``_json_chunks`` as a 2-D array or, ``keyed``, as an object of
    the rows keyed by their times' ``repr``.
    """

    state: GeodesicState
    times: np.ndarray
    width: int
    keyed: bool = False
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.times.size, self.width)

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        return positions_at(self.state, self.times[rows])[:, : self.width]


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """All-float CSV table of ``columns`` side by side, one column per
    header name: 1-D arrays are one column, 2-D arrays one per array column.

    Rows are written ``block_rows(len(header))`` at a time: the block's
    slices of the columns are stacked into one array and filled, one
    ``%.17g`` slot per value, into the block's line template, so no copy of
    the whole table is made.
    """
    m, n = block_rows(len(header)), len(columns[0])
    line = ",".join([FLOAT_FMT] * len(header)) + "\r\n"
    full = line * m
    with _csv_files([path], header) as (fh,):
        for s in range(0, n, m):
            values = np.column_stack([c[s : s + m] for c in columns])
            block = full if s + m <= n else line * (n - s)
            fh.write((block % tuple(values.ravel().tolist())).encode())


def write_moments_csv(path: str | Path, curve: MomentCurve) -> None:
    """Moment curve as CSV: t, mean_1..mean_d, var_1..var_d."""
    d = curve.dimension
    header = (
        ["t"]
        + [f"mean_{i + 1}" for i in range(d)]
        + [f"var_{i + 1}" for i in range(d)]
    )
    _write_table(path, header, [curve.times, curve.mean, curve.variance])


def write_ladder_csv(
    path: str | Path,
    ladder: PixelationLadder,
    phi: TentFunction,
    j_ref: int | None = None,
) -> None:
    """Ladder summary as CSV: j, alpha_j, degenerate, e_f, e_g, e_q,
    weak_error_t0, weak_error_tpi2 (empty fields at degenerate levels)."""
    lines = []
    for row in ladder_summary_rows(ladder, phi, j_ref):
        j, alpha, degenerate, *errors = (row[k] for k in LADDER_FIELDS)
        errors = ["" if e is None else FLOAT_FMT % e for e in errors]
        fields = [str(j), FLOAT_FMT % alpha, str(degenerate).lower(), *errors]
        lines.append((",".join(fields) + "\r\n").encode())
    with _csv_files([path], list(LADDER_FIELDS)) as (fh,):
        fh.writelines(lines)


def _csv_floats(xs: list[float]) -> list[str]:
    """The ``%.17g`` texts of floats, from one ``%`` fill."""
    return ("\n".join([FLOAT_FMT] * len(xs)) % tuple(xs)).split("\n")


def _json_floats(xs: list[float]) -> list[str]:
    """json's texts of floats (``repr`` when finite), from one encoder call."""
    return json.dumps(xs)[1:-1].split(", ")


def _json_chunks(obj, indent: str):
    """Pieces of ``json.dumps(obj, indent=2, default=np.ndarray.tolist)``
    for a value nested at ``indent``.

    A non-empty dict is written key by key.  A non-empty 1-D or 2-D array
    of float16, float32 or float64, or a ``_ClosedForm``, is written a block
    of whole rows at a time, as one ``%r`` fill of the rows' indented layout:
    json writes a finite float as its ``repr``, and ``nan``/``inf`` as
    ``NaN``/``Infinity`` (finite reprs hold no ``n``).  A keyed
    ``_ClosedForm`` fills each row's time into its key, ``"%r": ``, as json
    writes the key ``repr(t)``.  A generator of lists of (item
    text, count), the first list non-empty, is the array of those items,
    each repeated count times.  Anything else is one ``json.dumps``,
    re-indented (exact, as JSON strings hold no raw newline).
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, GeneratorType):
        lead = "[\n" + inner
        for items in obj:
            yield lead + sep.join([(text + sep) * (n - 1) + text for text, n in items])
            lead = sep
        yield "\n" + indent + "]"
    elif isinstance(obj, dict) and obj:
        lead = "{\n" + inner
        for k, v in obj.items():
            # json turns int, float, bool and None keys into their JSON text
            yield lead + json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
            yield from _json_chunks(v, inner)
            lead = sep
        yield "\n" + indent + "}"
    elif isinstance(obj, _ClosedForm) or (
        isinstance(obj, np.ndarray) and obj.ndim in (1, 2)
        and obj.dtype.kind == "f" and obj.itemsize <= 8 and obj.size
    ):
        if obj.ndim == 1:
            item, per_block = "%r", VALUES_PER_BLOCK
        else:
            row = inner + "  "
            cells = (",\n" + row).join(["%r"] * obj.shape[1])
            item = "[\n" + row + cells + "\n" + inner + "]"
            per_block = block_rows(obj.shape[1])
        keyed = getattr(obj, "keyed", False)
        if keyed:
            item = '"%r": ' + item
        lead, close = ("{\n" + inner, "}") if keyed else ("[\n" + inner, "]")
        for s in range(0, len(obj), per_block):
            rows = obj[s : s + per_block]
            if s == 0 or len(rows) < per_block:  # first block, short last block
                block = sep.join([item] * len(rows))
            if keyed:
                rows = np.column_stack([obj.times[s : s + per_block], rows])
            text = block % tuple(rows.ravel().tolist())
            if "n" in text:  # nan, inf: finite reprs hold no n
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield lead + text
            lead = sep
        yield "\n" + indent + close
    else:
        text = json.dumps(obj, indent=2, default=np.ndarray.tolist)
        yield text.replace("\n", "\n" + indent)


def _write_json(path: Path, obj: dict) -> None:
    """The bytes of ``json.dump(obj, fh, indent=2)`` plus a final newline:
    every JSON file is written here, piece by piece (``_json_chunks``), each
    piece encoded once."""
    with open(path, "wb") as fh:
        fh.writelines(chunk.encode() for chunk in _json_chunks(obj, ""))
        fh.write(b"\n")


def _indexed_name(stem: str, k: int, count: int, suffix: str) -> str:
    width = max(2, len(str(count - 1)))
    return f"{stem}_{k:0{width}d}.{suffix}"


# ---------------------------------------------------------------------------
# runners


def _run_simplex_geodesic(cfg: ExperimentConfig) -> list[Path]:
    """One file per trajectory.  Every trajectory is checked for a boundary
    touch and for mass 1 (``_checked_blocks``) before any file is written,
    keeping no positions; each is then evaluated again, a block at a time,
    as it is written.  The evaluations are sized by ``n_times``.  CSV files
    share the t column, so they are written in lockstep groups of up to
    ``_FRAMES_PER_GROUP``: a block's t texts are filled into its template
    once per group, its theta slots (left ``%.17g``) once per file, and no
    other block's text is held."""
    p = cfg.params
    p0, pairs = p["p0"], p["velocities"]
    states = []
    with _sized_by("n_times"):
        times = np.linspace(0.0, p["t_end"], p["n_times"])
        for _, v in pairs:
            states.append(simplex_state(p0, v))
            for _ in _checked_blocks(states[-1], times, BOUNDARY_FLOOR):
                pass
    if cfg.fmt == "csv":
        header = ["t"] + [f"theta_{i + 1}" for i in range(p0.n)]
        line = FLOAT_FMT + ("," + FLOAT_FMT.replace("%", "%%")) * p0.n + "\r\n"
        m = block_rows(p0.n + 1)
        written = [
            cfg.out_dir / _indexed_name("trajectory", k, len(pairs), "csv")
            for k in range(len(pairs))
        ]
        for g in range(0, len(pairs), _FRAMES_PER_GROUP):
            group = slice(g, g + _FRAMES_PER_GROUP)
            closed = [_ClosedForm(state, times, p0.n) for state in states[group]]
            with _sized_by("n_times"), _csv_files(written[group], header) as files:
                for s in range(0, times.size, m):
                    ts = times[s : s + m].tolist()
                    block = (line * len(ts)) % tuple(ts)
                    for fh, c in zip(files, closed):
                        fh.write((block % tuple(c[s : s + m].ravel().tolist())).encode())
        return written
    # the full-coordinate closed form, archived exactly as evaluated so that
    # a JSON re-import reproduces every frame bit for bit.  Equal times (a
    # subnormal t_end) share one frame, as dict keys would
    if np.any(times[1:] == times[:-1]):
        times = np.unique(times)
    written = []
    for k, ((tau, _), state) in enumerate(zip(pairs, states)):
        path = cfg.out_dir / _indexed_name("trajectory", k, len(pairs), "json")
        obj = {
            "config": {**cfg.echo, "trajectory_index": k, "tau": tau},
            "space": {"kind": "counting", "n_points": p0.n + 1},
            "alpha": state.alpha,
            "beta": state.beta,
            "frames": _ClosedForm(state, times, p0.n + 1, keyed=True),
        }
        with _sized_by("n_times"):
            _write_json(path, obj)
        written.append(path)
    return written


def _catalog_state(f0_cat: BoxFunction, g0_cat: BoxFunction, level: int) -> GeodesicState:
    """Project a catalog pair onto a grid's cell classes (``project_pair``)
    and normalize it into a geodesic state on them.

    The classes are products of per-axis runs on which both catalogs'
    averages are constant, and the flow is one scalar geodesic per class, so
    projection, normalization, the state's checks and ``moments`` cost
    O(per-axis cell types), whatever the level.  A projection that is no
    density, or a state that fails its own checks (an f0 so small that its
    amplitude underflows to 0), is a ConfigError on ``f0``.
    """
    try:
        f0, g_raw = project_pair(f0_cat, g0_cat, level)
        return geodesic_flow(f0, normalize_velocity(f0, g_raw))
    except ValueError as exc:
        raise ConfigError("f0", str(exc))


def _class_runs(classes: CellClasses) -> list[tuple[list[int], list[int], list[int]]]:
    """Per block of ``VALUES_PER_BLOCK`` cells, its runs of one class in
    cell order: the runs' classes, first cells and lengths (three lists).

    In cell order the cells fall into runs of one class: each grid row (a
    1-D grid is a single row) cut at the last axis's class edges, and cut
    again where a block ends.
    """
    grid = classes.grid
    side, last = grid.side_count, classes.edges[-1]
    # the class of each row's first cell
    rows = [0]
    for e in classes.edges[:-1]:
        run_of = [i for i in range(len(e) - 1) for _ in range(e[i], e[i + 1])]
        rows = [c * (len(e) - 1) + run_of[k] for c in rows for k in range(side)]
    m, per_row = VALUES_PER_BLOCK, len(last) - 1
    blocks = [([], [], []) for _ in range(0, grid.cell_count, m)]
    for r, c in enumerate(rows):
        for i in range(per_row):
            a, end = r * side + last[i], r * side + last[i + 1]
            while a < end:  # cut at block ends
                n = min(end, (a // m + 1) * m) - a
                for column, x in zip(blocks[a // m], (c * per_row + i, a, n)):
                    column.append(x)
                a += n
    return blocks


def _csv_run_texts(grid: DyadicGrid, runs) -> Iterator[list[bytes]]:
    """Per block of ``_class_runs``, in turn, its runs' CSV lines as ASCII
    bytes: the cells' index and center columns, with a NUL where each
    f_value goes.

    A run is one ``%d`` fill of its row's head (the index slot and the
    center columns before the last axis's) joined over the last axis's
    center texts.  Heads and tails are built once: 2^level texts per axis
    and one head per grid row, not a text per cell (in 1-D the axis is the
    grid).
    """
    side = grid.side_count
    axis = [x.encode() for x in _csv_floats(grid.axis_centers().tolist())]
    tails = [x + b",\0\r\n" for x in axis]
    heads = [b"%d,"]
    for _ in range(grid.dimension - 1):
        heads = [head + x + b"," for head in heads for x in axis]
    for _, starts, lengths in runs:
        texts = []
        for a, n in zip(starts, lengths):
            head, c = heads[a // side], a % side
            texts.append((head + head.join(tails[c : c + n])) % tuple(range(a, a + n)))
        yield texts


def _run_density_geodesic(cfg: ExperimentConfig) -> list[Path]:
    """Density frames: one CSV file per frame, or one JSON archive.

    CSV frames are written in groups of up to ``_FRAMES_PER_GROUP``, in
    lockstep: the group's frames are evaluated and their class texts
    formatted, in frame order, then each block's run texts are built once
    and filled into every frame file of the group.  So the writer holds
    (frames in a group) x classes class texts and one block's run texts,
    where it held every cell's index and center text: the classes are at
    most (2B + 1)^d for catalogs of B bounds per axis, the cells 2^(d level).
    JSON frames are evaluated one at a time, as they are written, and a run
    of n cells is its class's text and separator repeated n - 1 times, then
    the text.  Cells appear only here: each frame (and the archive's
    ``alpha``/``beta``) is evaluated and formatted once per class, and a
    class's text written for each cell of its runs, so the bytes are those
    of evaluating and formatting cell by cell.

    Every frame is checked to be a density (``_checked_blocks``) before any
    file is opened.
    """
    p = cfg.params
    state = _catalog_state(p["f0"], p["g0"], p["level"])
    grid: DyadicGrid = state.space.grid
    with _sized_by("n_frames"):
        times = np.linspace(0.0, p["t_end"], p["n_frames"])
    for _ in _checked_blocks(state, times):
        pass
    runs = _class_runs(state.space)

    written: list[Path] = []
    if cfg.fmt == "csv":
        header = (
            ["cell_index"]
            + [f"x_center_{d + 1}" for d in range(grid.dimension)]
            + ["f_value"]
        )
        for k in range(len(times)):
            written.append(cfg.out_dir / _indexed_name("frame", k, len(times), "csv"))
        for g in range(0, len(times), _FRAMES_PER_GROUP):
            group = slice(g, g + _FRAMES_PER_GROUP)
            frames = [
                [x.encode() for x in _csv_floats(density_at(state, t).values.tolist())]
                for t in times[group]
            ]
            with _csv_files(written[group], header) as files:
                for (owners, _, _), lines in zip(runs, _csv_run_texts(grid, runs)):
                    for fh, texts in zip(files, frames):
                        fh.write(b"".join(
                            [run.replace(b"\0", texts[c]) for c, run in zip(owners, lines)]
                        ))
    else:

        def items(values: Callable[[], np.ndarray]) -> Iterator[list[tuple[str, int]]]:
            # a frame is evaluated only when it is written
            texts = _json_floats(values().tolist())
            for owners, _, lengths in runs:
                yield [(texts[c], n) for c, n in zip(owners, lengths)]

        path = cfg.out_dir / "density_geodesic.json"
        obj = {
            "config": cfg.echo,
            "space": {
                "kind": "dyadic",
                "dimension": grid.dimension,
                "level": grid.level,
            },
            "alpha": items(lambda: state.alpha),
            "beta": items(lambda: state.beta),
            "frames": {
                repr(float(t)): items(lambda t=t: density_at(state, t).values)
                for t in times
            },
        }
        _write_json(path, obj)
        written.append(path)
    return written


def _run_pixelation_convergence(cfg: ExperimentConfig) -> list[Path]:
    p, phi = cfg.params, cfg.params["phi"]
    ladder = build_ladder(p["f0"], p["g0"], p["levels"], delta=p["delta"])
    if cfg.fmt == "csv":
        path = cfg.out_dir / "ladder.csv"
        write_ladder_csv(path, ladder, phi, p["j_ref"])
    else:
        path = cfg.out_dir / "ladder.json"
        _write_json(
            path, {"config": cfg.echo, "rows": ladder_summary_rows(ladder, phi, p["j_ref"])}
        )
    return [path]


def _run_moments(cfg: ExperimentConfig) -> list[Path]:
    """Moment curves, evaluated through the three-term identity: they may
    differ in the last ulp from the dense (times x cells) evaluation that
    version 0.1.0 made."""
    p = cfg.params
    state = _catalog_state(p["f0"], p["g0"], p["level"])
    with _sized_by("n_times"):
        times = np.linspace(0.0, p["t_end"], p["n_times"])
    curve = moments(state, times)
    if cfg.fmt == "csv":
        path = cfg.out_dir / "moments.csv"
        write_moments_csv(path, curve)
    else:
        path = cfg.out_dir / "moments.json"
        _write_json(
            path,
            {
                "config": cfg.echo,
                "times": curve.times,
                "mean": curve.mean,
                "variance": curve.variance,
            },
        )
    return [path]


def _oracle_compare_arrays(cfg: ExperimentConfig):
    """tau, the RK4 times, the closed form (a ``_ClosedForm``) and RK4
    positions at them, and each row's largest absolute difference between
    the two.

    The RK4 table, and the (T,) differences, are sized by ``step``.
    """
    p = cfg.params
    p0, ((tau, v),) = p["p0"], p["velocities"]
    with _sized_by("step"):  # the RK4 table is allocated before the first step
        traj = integrate_coupled(p0, v, p["integrator"])
        closed = _ClosedForm(simplex_state(p0, v), traj.times, p0.n)
        diff = _row_deviations(closed, traj.positions)
    return tau, traj.times, closed, traj.positions, diff


def _row_deviations(closed: _ClosedForm, rk4: np.ndarray) -> np.ndarray:
    """Each row's largest |closed - rk4|, the closed form evaluated and
    checked (``_checked_blocks``) a block at a time, before any write."""
    diff = np.empty(len(closed))
    for s, y in _checked_blocks(closed.state, closed.times, BOUNDARY_FLOOR):
        d = np.subtract(y[:, : closed.width], rk4[s : s + len(y)])
        diff[s : s + len(y)] = np.abs(d, out=d).max(axis=1)
    return diff


def _write_oracle_compare(cfg: ExperimentConfig, tau, times, closed, rk4, diff) -> Path:
    """``oracle_compare.csv`` or ``.json`` of the arrays, in ``cfg.fmt``."""
    n = closed.shape[1]
    if cfg.fmt == "csv":
        path = cfg.out_dir / "oracle_compare.csv"
        header = (
            ["t"]
            + [f"theta_{i + 1}" for i in range(n)]
            + [f"rk4_theta_{i + 1}" for i in range(n)]
            + ["abs_diff"]
        )
        _write_table(path, header, [times, closed, rk4, diff])
    else:
        path = cfg.out_dir / "oracle_compare.json"
        _write_json(
            path,
            {
                "config": {**cfg.echo, "tau": tau},
                "times": times,
                "closed": closed,
                "rk4": rk4,
                "max_abs_diff": float(diff.max()),
            },
        )
    return path


def _run_oracle_compare(cfg: ExperimentConfig) -> list[Path]:
    return [_write_oracle_compare(cfg, *_oracle_compare_arrays(cfg))]


_RUNNERS = {
    "simplex-geodesic": _run_simplex_geodesic,
    "density-geodesic": _run_density_geodesic,
    "pixelation-convergence": _run_pixelation_convergence,
    "moments": _run_moments,
    "oracle-compare": _run_oracle_compare,
}


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute a validated configuration; returns the written files.  No
    other module writes a file."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create {cfg.out_dir}: {exc}")
    return _RUNNERS[cfg.kind](cfg)


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a ConfigError (exit 2), not usage text
        raise ConfigError("command line", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frgeo",
        description="Fisher-Rao geodesic experiments (CSV/JSON export).",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, schema in KIND_KEYS.items():
        keys = ", ".join(
            f"{name} ({spec.doc})" for name, spec in schema.items()
        )
        sp = sub.add_parser(
            kind,
            help=f"run a {kind} experiment",
            description=f"Keys for {kind}: {keys}",
        )
        sp.add_argument("--config", metavar="PATH", help="key = value file")
        sp.add_argument(
            "--out", metavar="DIR", default=".", help="output directory"
        )
        sp.add_argument("--format", default="csv", dest="fmt", help="csv or json")
        sp.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help="override config file entries",
        )
    return parser


def _emit_error(exc: FrgeoError) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("field", "coordinate", "time", "condition"):
        if hasattr(exc, attr):
            payload[attr] = getattr(exc, attr)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


# built once per process: parse_known_args leaves a parser as it found it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run the experiment ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code, parsing with the parser built once per process,
    when the module is imported."""
    try:
        # key=value tokens after an option are left over by argparse
        args, leftovers = _PARSER.parse_known_args(argv)
        pairs = read_config_file(args.config) if args.config else {}
        pairs = _merge_overrides(pairs, args.overrides + leftovers)
        cfg = validate_config(args.kind, pairs, args.out, args.fmt)
        written = run_experiment(cfg)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except FrgeoError as exc:
        _emit_error(exc)
        return 3
    for path in written:
        print(path)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
