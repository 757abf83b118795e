#!/usr/bin/env python3
"""Line counts of ``src/frgeo``, per module and in total, of the test
references in ``tests/oracles.py``, and of the README.

Each line of a module falls in exactly one class:

- docstring: inside a module, class or function docstring (found with
  ``ast``), blank lines within it included;
- blank: empty or whitespace only;
- comment: a ``#`` comment and nothing else;
- code: everything else.

so lines = code + docstring + comment + blank.  ``tests/oracles.py`` gets
the same split, so that code moved from the package into the test
references shows on both sides.  The script counts the checkout it sits
in.

    python3 benchmarks/src_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based line numbers covered by the module's, classes' and
    functions' docstrings."""
    owners = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    lines = set()
    for node in owners:
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of ``path`` by class (see the module docstring)."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("lines", *CLASSES), 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def split(name: str, counts: dict[str, int]) -> str:
    """``name: lines = code / docstring / comment / blank (...)``."""
    return (
        f"{name}: {counts['lines']:,} = "
        + " / ".join(f"{counts[k]:,}" for k in CLASSES)
        + " (" + " / ".join(CLASSES) + ")"
    )


def main() -> int:
    modules = sorted((ROOT / "src" / "frgeo").glob("*.py"))
    header = ("module", "lines", *CLASSES)
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    total = dict.fromkeys(header[1:], 0)
    for path in modules:
        counts = count(path)
        for key in total:
            total[key] += counts[key]
        print(f"| {path.name} | " + " | ".join(f"{counts[k]:,}" for k in header[1:]) + " |")
    print("| total | " + " | ".join(f"**{total[k]:,}**" for k in header[1:]) + " |")
    print()
    print(split("src/frgeo", total))
    print(split("tests/oracles.py", count(ROOT / "tests" / "oracles.py")))
    readme = ROOT / "README.md"
    print(f"README.md: {len(readme.read_text().splitlines()):,} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
