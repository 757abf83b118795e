#!/usr/bin/env python3
"""End-to-end benchmark of the ``frgeo`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --smoke

One run measures one workload (``grid``, ``ladder`` or ``oracle``, see
``workloads.py``) in this process: a closed loop with one client that calls
``frgeo.cli.main(argv)`` for each experiment of the workload in turn, and
repeats the list until ``--seconds`` have passed.  Timings are medians over
those passes.  Untraced passes also time a fixed micro-probe every 50 ms
(``HostSampler``), and the gated wall metric is the pass's wall time over
the probe's mean time, which cancels most of the host's speed drift.
With ``--trace 1`` the passes alternate traced and untraced, starting
traced, and the run reports per-layer metrics from the spans of ``spans.py``
instead of the end-to-end metrics.

Set-up time is measured in fresh child processes, each timed from its start
until ``frgeo`` is imported and the workload's inputs and catalog files are
written; the median of several, spread between the passes, is reported.
Output checks (``checks.py``) run outside the timed passes: the first pass's
files are checked in full, later passes must write identical bytes, and one
experiment is re-run at the end and compared byte for byte.

The run record (environment, every metric with its unit, per-kind times,
health values, failures) is printed and written to
``.perfbench/records/``; spans of traced runs are written beside it.  The
last line of output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every experiment exited as expected and passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_PROBES = {"full": 9, "toy": 3}
# host sampling: ~2 ms of interpreter loop every 50 ms of a pass, ~4% extra
PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 20000
KINDS = (
    "density-geodesic",
    "moments",
    "pixelation-convergence",
    "oracle-compare",
    "simplex-geodesic",
)


def kind_metric(kind: str) -> str:
    return kind.replace("-", "_") + "_s"


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, unit in (
        ("_in_probes", "probe"),
        ("_mb_per_s", "MB/s"),
        ("_s", "s"),
        ("_mb", "MB"),
        ("_frac", "frac"),
        ("bytes_written", "B"),
    ):
        if name.endswith(suffix):
            return unit
    if ".ns_per_" in name:
        return "ns"
    if ".us_per_" in name:
        return "us"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("grid", "ladder", "oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="toy shrinks every experiment so a run takes seconds",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="run every workload at toy size, traced and untraced, and check "
        "that every metric in BENCHMARK.json is emitted and every check passes",
    )
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


def use_sources() -> None:
    """Import frgeo from the checkout's sources, or exit 2 without a result."""
    if not (SRC / "frgeo" / "__init__.py").is_file():
        sys.stderr.write(f"frgeo sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def prepare(args, inputs: Path):
    """Import frgeo and write the workload's inputs: the set-up being timed."""
    import frgeo.cli  # noqa: F401  (the import is part of set-up)
    from workloads import make_plan

    inputs.mkdir(parents=True, exist_ok=True)
    return make_plan(args.workload, args.seed, args.size == "toy", inputs)


def measure_setup(args, work: Path, samples: list[float], count: int) -> None:
    """Append ``count`` set-up seconds of fresh processes, start to inputs written."""
    for _ in range(count):
        probe_dir = work / f"probe{len(samples)}"
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-probe", str(probe_dir),
        ]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        # CLOCK_MONOTONIC is shared by all processes, so the child's reading
        # of it marks the end of its set-up on this process's clock
        samples.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the timed loop


class HostSampler:
    """Times a fixed interpreter micro-probe every PROBE_INTERVAL_S of a pass.

    The host's speed switches between two states about 1.5x apart, several
    times a second, in CPU time as well as wall time.  SIGALRM runs the
    probe between the program's bytecodes, so the probe's mean time tracks
    the host's mean speed over the pass, and a pass's wall time over it is
    steadier than either.  The probe never calls ``frgeo``, so no change to
    the program moves it.  One probe at each end keeps the mean defined for
    passes shorter than the interval.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()


def run_pass(experiments, out: Path, k: int, tracer) -> dict:
    """One pass over the experiments; untraced passes sample the host."""
    from frgeo.cli import main as cli_main

    sampler = HostSampler()
    times, exits = {}, {}
    start = time.perf_counter()
    with sampler if tracer is None else contextlib.nullcontext():
        for exp in experiments:
            if tracer is not None:
                tracer.experiment = f"{k}/{exp.name}"
            err = io.StringIO()
            n0 = len(sampler.samples)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli_main([*exp.argv, "--out", str(out / exp.name)])
            except Exception:  # a crash is a failed experiment, not a dead run
                rc = None
                err.write(traceback.format_exc())
            times[exp.name] = time.perf_counter() - t0 - sum(sampler.samples[n0:])
            exits[exp.name] = (rc, err.getvalue())
    wall = time.perf_counter() - start - sum(sampler.samples)
    kinds = {}
    for exp in experiments:
        kinds[exp.kind] = kinds.get(exp.kind, 0.0) + times[exp.name]
    probe = statistics.mean(sampler.samples) if sampler.samples else None
    return {"index": k, "traced": tracer is not None, "wall": wall,
            "probe_mean_s": probe, "probes": len(sampler.samples),
            "wall_in_probes": wall / probe if probe else None,
            "times": times, "kinds": kinds, "exits": exits}


def _median(values) -> float:
    return statistics.median(values)


def run_workload(args, plan, work: Path, setup: list[float]) -> dict:
    """Timed passes until ``--seconds``, then the output checks.

    Set-up samples are taken between passes, outside the timed region, so
    that their median spans the host's drift over the whole run.
    """
    import checks
    from spans import Tracer, layer_metrics, layer_shares

    tracer = Tracer() if args.trace else None
    failures: dict[str, str] = {}
    passes = []
    first = work / "pass0"
    begin = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 0
        out = work / f"pass{k}"
        if traced:
            tracer.install()
        try:
            p = run_pass(plan.experiments, out, k, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for exp in plan.experiments:
            rc, stderr = p["exits"][exp.name]
            key = f"{k}/{exp.name}"
            try:
                checks.check_exit(exp, rc, stderr)
            except checks.CheckFailed as exc:
                failures[key] = str(exc)
                continue
            if k > 0 and not checks.same_files(first / exp.name, out / exp.name):
                failures[key] = "files differ from the first pass"
        if k > 0:
            shutil.rmtree(out)
        passes.append(p)
        gc.collect()
        measure_setup(args, work, setup, min(2, SETUP_PROBES[args.size] - len(setup)))
        # stop before a pass that would end past --seconds, at the pace so far
        elapsed = time.perf_counter() - begin
        enough = elapsed * (len(passes) + 1) / len(passes) > args.seconds
        if enough and (not args.trace or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measure_setup(args, work, setup, SETUP_PROBES[args.size] - len(setup))

    # full output checks on the first pass, outside every timed region
    health = {}
    for exp in plan.experiments:
        key = f"0/{exp.name}"
        if key in failures:
            continue
        try:
            health[exp.name] = checks.check_outputs(exp, first / exp.name)
        except checks.CheckFailed as exc:
            failures[key] = str(exc)
    if plan.workload == "oracle":
        exp = plan.experiments[0]
        try:
            health["backend"] = checks.backend_crosscheck(exp)
        except checks.CheckFailed as exc:
            failures.setdefault(f"0/{exp.name}", str(exc))

    # one experiment again: same seed, same bytes
    exp = plan.experiment(plan.rerun)
    again = run_pass([exp], work / "rerun", -1, None)
    rc, stderr = again["exits"][exp.name]
    try:
        checks.check_exit(exp, rc, stderr)
        if not checks.same_files(first / exp.name, work / "rerun" / exp.name):
            failures[f"rerun/{exp.name}"] = "re-run wrote different bytes"
    except checks.CheckFailed as exc:
        failures[f"rerun/{exp.name}"] = str(exc)

    timed = [p for p in passes if not p["traced"]]  # never empty, see the loop
    result = {
        "passes": len(passes),
        "attempted": len(passes) * len(plan.experiments) + 1,
        "failed": len(failures),
        "failures": failures,
        "health": health,
        "pass_walls": [p["wall"] for p in passes],
        "pass_walls_in_probes": [p["wall_in_probes"] for p in passes],
        "pass_probe_mean_s": [p["probe_mean_s"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "experiment_s": {
            exp.name: [p["times"][exp.name] for p in passes] for exp in plan.experiments
        },
    }
    kinds_run = [k for k in KINDS if k in passes[0]["kinds"]]
    result["end_to_end"] = {
        "wall_s": _median(p["wall"] for p in timed),
        "wall_in_probes": _median(p["wall_in_probes"] for p in timed),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": result["failed"] / result["attempted"],
        **{kind_metric(k): _median(p["kinds"][k] for p in timed) for k in kinds_run},
    }
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass, shares = [], []
        for p in traced_passes:
            spans = [s for s in tracer.spans if s.experiment.split("/")[0] == str(p["index"])]
            m = layer_metrics(spans)
            for kind in KINDS:
                m["run." + kind_metric(kind)] = p["kinds"].get(kind, 0.0)
            per_pass.append(m)
            shares.append(layer_shares(plan.workload, spans, p["kinds"]))
        layers = {
            name: _median(m[name] for m in per_pass) for name in per_pass[0]
        }
        # the high-water mark rises only on the process's first moments call
        layers["moments.rss_hwm_delta_mb"] = max(m["moments.rss_hwm_delta_mb"] for m in per_pass)
        layers["trace.overhead_frac"] = (
            _median(p["wall"] for p in traced_passes) / _median(p["wall"] for p in timed) - 1.0
        )
        result["per_layer"] = layers
        result["layer_shares"] = {}
        for name, first_share in shares[0].items():
            share = _median(s[name]["share"] for s in shares)
            result["layer_shares"][name] = {
                "share": share,
                "minimum": first_share["minimum"],
                "holds": share >= first_share["minimum"],
            }
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return result


# ---------------------------------------------------------------------------
# record and entry point


def environment(args) -> dict:
    import numpy

    import frgeo
    from frgeo import kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "frgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": kernels.backend_name(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "frgeo": frgeo.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "FRG_THREADS": os.environ.get("FRG_THREADS"),
        "FRG_NO_NUMBA": os.environ.get("FRG_NO_NUMBA"),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own ``.git``; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def with_units(values: dict) -> dict:
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


def run(args) -> int:
    use_sources()
    work = STATE_DIR / f"work-{os.getpid()}"
    try:
        setup: list[float] = []
        measure_setup(args, work, setup, 1)
        plan = prepare(args, work / "inputs")
        result = run_workload(args, plan, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = result.pop("spans", None)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(args),
        "setup_samples_s": setup,
        **result,
    }
    record["end_to_end"]["setup_s"] = _median(setup)
    record["end_to_end"] = with_units(record["end_to_end"])
    if "per_layer" in record:
        record["per_layer"] = with_units(record["per_layer"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    records = STATE_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (records / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(record, indent=1))

    if args.trace:
        metrics = record["per_layer"]
    else:
        e2e = record["end_to_end"]
        metrics = {name: e2e[name] for name in ("setup_s", "wall_in_probes", "peak_rss_mb")}
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at toy size, both trace modes, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    problems = []
    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(layers) != per_layer:
        problems.append(f"layers.json differs from per_layer: {sorted(set(layers) ^ per_layer)}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "toy",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            try:
                last = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {done.returncode}): {done.stderr[-2000:]}")
                continue
            if done.returncode != 0 or not last["correct"] or last["failed"]:
                problems.append(f"{label}: exit {done.returncode}, {last['failed']} failed")
            got = last["metrics"]
            names = {m["name"] for m in wanted}
            if set(got) != names:
                problems.append(f"{label}: metrics differ: {sorted(set(got) ^ names)}")
            for m in wanted:
                if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got[m['name']]['unit']}")
            print(f"{label}: {len(got)} metrics, attempted {last['attempted']}, failed {last['failed']}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    args = parse_args()
    if args.smoke:
        return smoke()
    if args.setup_probe:
        use_sources()
        prepare(args, Path(args.setup_probe))
        print(time.monotonic())
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
