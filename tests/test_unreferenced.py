"""Every definition in `src/repverify` has a reader in `src/`, or a stated reason."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import repverify

SRC = Path(repverify.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# Definitions that nothing in src/ names, each kept for a reader outside it;
# each reason starts with the file, relative to the repository root, that names it.
ALLOWED = {
    "reps.config_to_json": "README.md documents the configuration JSON round trip",
    "reps.config_from_json": "README.md documents the configuration JSON round trip",
    "brascamp_lieb.datum_to_json": "README.md documents the datum JSON round trip",
    "qlinalg.subspace_from_json": "README.md documents the subspace JSON round trip",
    "generic.translate": "benchmark/workloads.py calls it",
    "qlinalg.nilpotent_exp": "benchmark/workloads.py calls it",
    "qlinalg.rank": "benchmark/workloads.py calls it",
    "reps.FlagProjector.projector": "benchmark/workloads.py reads it",
    "qlinalg.Mat.from_cols": "benchmark/tracing.py wraps it by name",
    "qlinalg.Mat.apply": "benchmark/tracing.py wraps it by name",
    "qlinalg.Mat.hstack": "benchmark/tracing.py wraps it by name",
    "qlinalg.Subspace.contains_vector": "benchmark/tracing.py wraps it by name",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name) of each module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _named(text: str) -> set[str]:
    """The NAME tokens of text, less the name that follows each `def` or `class`."""
    names, prev = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and not (prev and prev.string in ("def", "class")):
            names.add(tok.string)
        if tok.type in (tokenize.NAME, tokenize.OP):
            prev = tok
    return names


def _entry_points() -> set[str]:
    """The `[project.scripts]` targets of pyproject.toml, as module.function."""
    section = PYPROJECT.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {f"{mod}.{fn}" for mod, fn in re.findall(r'=\s*"repverify\.(\w+):(\w+)"', section)}


def test_every_definition_is_named_in_src():
    """A definition passes when its bare name is a NAME token in some module of
    src/repverify other than `__init__.py` (whose imports and `__all__` only
    re-export), is an entry point, or is in ALLOWED.

    The blind spot: only the bare name is matched, so a definition whose name
    some other identifier shares (`zeros`, `vstack`, `reduce`, `is_zero`)
    passes whether or not anything calls it."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        defined += _definitions(ast.parse(text), path.stem)
        named |= _named(text)
    unreferenced = {qual for qual, name in defined if name not in named} - _entry_points()
    assert sorted(unreferenced - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unreferenced) == [], "an allowed definition is gone or now named in src/"


def test_every_allowed_reason_holds():
    """The file that begins each ALLOWED reason names the definition's bare name."""
    false = [
        qual for qual, reason in ALLOWED.items()
        if not re.search(rf"\b{qual.rsplit('.', 1)[1]}\b", (ROOT / reason.split()[0]).read_text())
    ]
    assert false == []
