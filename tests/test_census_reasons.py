"""Guard for the reachability census's reason table.

``benchmarks/census.py`` keeps, for every ``src/`` function no user path
reaches, one named reason.  This reads the table with :mod:`ast` only (it
runs nothing) and fails when an entry names code that no longer exists in
``src/repro`` — a stale entry left behind by a later deletion — or uses a
reason kind outside the census's six.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "benchmarks" / "census.py"
PACKAGE = ROOT / "src" / "repro"
KINDS = {"paper", "fault", "reference", "bench", "item5", "deferred"}


def _assigned(name):
    """The literal value of a module-level ``name = ...`` in census.py."""
    for node in ast.parse(CENSUS.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"census.py assigns no {name}")


@lru_cache(maxsize=None)
def _qualnames(path):
    """Every class and function qualified name defined in one file."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def test_kinds_match_the_census():
    assert set(_assigned("KINDS")) == KINDS


def test_every_reason_uses_a_known_kind_and_says_why():
    for kind, why, keys in _assigned("REASONS"):
        assert kind in KINDS, (kind, keys)
        assert why.strip(), keys
        assert keys, why


def test_every_key_names_existing_code():
    stale = []
    for _, _, keys in _assigned("REASONS"):
        for key in keys:
            path, _, qualname = key.partition("::")
            file = PACKAGE / path
            if not file.is_file() or (qualname and qualname not in _qualnames(file)):
                stale.append(key)
    assert stale == []


def test_no_key_is_listed_twice():
    keys = [key for _, _, group in _assigned("REASONS") for key in group]
    assert len(keys) == len(set(keys))
