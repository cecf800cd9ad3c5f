"""Every public name has a user: the package's own code, or the README."""

import ast
import re
from pathlib import Path

import hbcool

ROOT = Path(__file__).resolve().parents[1]

# Names kept only because the benchmark reads them. The set shrinks once the
# benchmark holds its own copies and the package drops them.
HELD_FOR_BENCH = {"newbias_sym_after", "newbias_sym_during", "blim_sym_during",
                  "blim_asym_after"}


def _read_in_package() -> set[str]:
    """Names and attributes loaded, and names and modules imported from, in
    the package's modules other than `__init__`."""
    read = set()
    for path in Path(hbcool.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
                read.add((node.module or "").rpartition(".")[2])
    return read


def _words(*paths: Path) -> set[str]:
    return {word for path in paths for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}


def test_every_public_name_has_a_user():
    used = _read_in_package() | _words(ROOT / "README.md")
    assert sorted(set(hbcool.__all__) - used - HELD_FOR_BENCH) == []
    # a held name that gains a user leaves the set
    assert sorted(HELD_FOR_BENCH & used) == []


def test_held_names_are_public_and_read_by_the_benchmark():
    assert HELD_FOR_BENCH <= set(hbcool.__all__)
    assert sorted(HELD_FOR_BENCH - _words(*(ROOT / "bench").glob("*.py"))) == []
