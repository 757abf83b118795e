#!/usr/bin/env python3
"""Compare what this checkout and a parent revision write, run by run.

Same behaviour means the same data files, exit codes and messages for the
same command line.  The script builds the parent's tree from
``git archive REV`` in a temporary directory and runs one fixed set of
``frgeo`` command lines, each in a fresh child interpreter of either tree:

- every experiment of ``perfbench/workloads.py`` (workloads ``grid``,
  ``ladder`` and ``oracle``) at seeds 1 and 7, from this checkout's copy of
  that file, whose catalog files both trees then read;
- each kind's default run, in CSV and in JSON;
- the error cases of ``EXIT_CONTRACT`` in ``tests/test_cli.py``, with the
  files of its ``EXIT_FILES``.

For each run it compares the exit code, stdout and stderr, with the run's
own directory written as ``.`` and its tree's as ``<tree>``, and each
written file's name and SHA-256.  It prints one line per difference, then
a summary line, and exits 0 only when there is no difference.  The parent
tree runs what ``REV`` committed; this side runs the working tree,
uncommitted edits included.

    python3 benchmarks/same_behaviour.py --parent HEAD~1
    python3 benchmarks/same_behaviour.py --parent main --toy --match '^ladder/seed1/'
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from frgeo.cli import KIND_KEYS  # noqa: E402

WORKLOADS = ("grid", "ladder", "oracle")
SEEDS = (1, 7)
RUN_TIMEOUT_S = 600
SHOWN = 120  # characters of a differing stdout or stderr shown


def literal_tables(path: Path, *names: str) -> list:
    """The module-level literals ``names`` of the file ``path``."""
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in names:
                values[name] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def cases(inputs: Path, toy: bool) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every run, in order; input files go to ``inputs``."""
    out = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            folder = inputs / f"{workload}_seed{seed}"
            folder.mkdir(parents=True)
            plan = workloads.make_plan(workload, seed, toy, folder)
            out += [(f"{workload}/seed{seed}/{e.name}", e.argv) for e in plan.experiments]
    for kind in KIND_KEYS:
        out += [(f"default/{kind}/{fmt}", (kind, "--format", fmt)) for fmt in ("csv", "json")]
    files, contract = literal_tables(ROOT / "tests" / "test_cli.py", "EXIT_FILES", "EXIT_CONTRACT")
    paths = {key: inputs / name for key, (name, _) in files.items()}
    for key, (_, data) in files.items():
        paths[key].write_bytes(data)
    for name, (argv, *_) in contract.items():
        out.append((f"error/{name}", tuple(a.format(**paths) for a in argv)))
    return out


def run(tree: Path, argv: tuple[str, ...], run_dir: Path) -> dict:
    """Exit code, relativized stdout and stderr, and the SHA-256 of each
    file under ``run_dir/out`` by relative path, of one run on ``tree``."""
    run_dir.mkdir(parents=True)
    out = run_dir / "out"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "frgeo.cli", *argv, "--out", str(out)],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )

    def relative(text: str) -> str:
        return text.replace(str(run_dir), ".").replace(str(tree), "<tree>")

    files = {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*")) if p.is_file()
    }
    return {
        "exit code": proc.returncode, "stdout": relative(proc.stdout),
        "stderr": relative(proc.stderr), "files": files,
    }


def differences(name: str, parent: dict, change: dict) -> list[str]:
    """One line per way the change's run differs from the parent's."""
    lines = [
        f"{name}: {key} differs: {parent[key]!r:.{SHOWN}} -> {change[key]!r:.{SHOWN}}"
        for key in ("exit code", "stdout", "stderr") if parent[key] != change[key]
    ]
    for file in sorted(parent["files"].keys() | change["files"].keys()):
        a, b = parent["files"].get(file), change["files"].get(file)
        if a != b:
            what = "only in the parent" if b is None else "only in the change" if a is None else (
                "SHA-256 differs"
            )
            lines.append(f"{name}: {file}: {what}")
    return lines


def parent_tree(rev: str, dest: Path) -> Path:
    """``git archive rev`` of this checkout, unpacked into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision")
    parser.add_argument("--toy", action="store_true", help="workloads at their toy sizes")
    parser.add_argument("--match", default="", metavar="REGEX", help="only runs whose name matches")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_behaviour_") as tmp:
        tmp = Path(tmp)
        trees = {"parent": parent_tree(args.parent, tmp / "parent"), "change": ROOT}
        selected = [
            (name, case) for name, case in cases(tmp / "inputs", args.toy)
            if re.search(args.match, name)
        ]
        found, n_files = [], 0
        for k, (name, case) in enumerate(selected):
            results = {
                side: run(tree, case, tmp / "runs" / side / str(k)) for side, tree in trees.items()
            }
            n_files += len(results["change"]["files"])
            found += differences(name, results["parent"], results["change"])
    for line in found:
        print(line)
    print(
        f"{len(selected)} runs and {n_files} files of the change against {args.parent}: "
        f"{len(found)} differences"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
