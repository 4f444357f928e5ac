"""Guard for the reachability census's reason table.

``benchmarks/census.py`` keeps, for every ``src/`` function no user path
reaches and every config field no user path sets, one named reason and
the tests that need the code or set the field.  This reads the table
with :mod:`ast` only (it runs nothing) and fails when an entry names
code or a field that no longer exists in ``src/repro`` — a stale entry
left behind by a later deletion — uses a reason kind outside the
census's five, or names a test that does not exist.  A field key, and a
``paper`` or ``reference`` key, must also be mentioned by a named test's
file (or a test helper that file imports): the test reaches it on
purpose, not by accident.

``TestValueRule`` runs the knob pass's rule (a field is in use when the
package reads it with two values) on synthetic reads, and its recorder
on a real config.
"""

import ast
import dataclasses
import importlib.util
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "benchmarks" / "census.py"
PACKAGE = ROOT / "src" / "repro"
KINDS = {"paper", "fault", "reference", "bench", "item5"}


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
def _qualnames(path, separator="."):
    """Every class and function qualified name defined in one file."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, prefix + child.name + separator)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


@lru_cache(maxsize=None)
def _text_with_helpers(path):
    """A test file's text plus that of the ``tests`` modules it imports."""
    texts = [path.read_text()]
    for node in ast.walk(ast.parse(texts[0])):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = path.parent.joinpath(*[".."] * (node.level - 1))
                module = base.joinpath(*(node.module or "").split("."))
            elif (node.module or "").startswith("tests."):
                module = ROOT.joinpath(*node.module.split("."))
            else:
                continue
            helper = module.with_suffix(".py")
            if helper.is_file():
                texts.append(helper.read_text())
    return "\n".join(texts)


@lru_cache(maxsize=None)
def _fields(path, class_name):
    """The annotated (dataclass) fields of one class, ``ClassVar`` aside."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
            }
    return set()


def _field_key(key):
    """(file, class, field) when ``key`` names a config field, else None."""
    config, _, name = key.rpartition(".")
    if config not in _assigned("CONFIGS"):
        return None
    path, _, class_name = config.partition("::")
    return path, class_name, name


def _keys(kinds=None):
    """(key, named tests) of every REASONS key, of ``kinds`` when given."""
    return [
        (key, tests)
        for kind, _, keys, tests in _assigned("REASONS")
        if kinds is None or kind in kinds
        for key in keys
    ]


def test_kinds_match_the_census():
    assert set(_assigned("KINDS")) == KINDS


def test_every_reason_uses_a_known_kind_and_says_why():
    for kind, why, keys, tests in _assigned("REASONS"):
        assert kind in KINDS, (kind, keys)
        assert why.strip(), keys
        assert keys, why
        assert tests, why


def test_every_key_names_existing_code():
    stale = []
    for key, _ in _keys():
        if _field_key(key):
            continue
        path, _, qualname = key.partition("::")
        file = PACKAGE / path
        if not file.is_file() or (qualname and qualname not in _qualnames(file)):
            stale.append(key)
    assert stale == []


def test_the_config_classes_exist():
    for config in _assigned("CONFIGS"):
        path, _, class_name = config.partition("::")
        assert _fields(PACKAGE / path, class_name), config


def test_every_field_key_names_an_existing_dataclass_field():
    fields = [_field_key(key) for key, _ in _keys() if _field_key(key)]
    assert fields, "the knob pass keeps no field"
    missing = [
        (path, class_name, name)
        for path, class_name, name in fields
        if name not in _fields(PACKAGE / path, class_name)
    ]
    assert missing == []


def test_field_keys_are_mentioned_by_their_tests():
    """A kept field is set by the tests named for it."""
    unmentioned = []
    for key, tests in _keys():
        if not _field_key(key):
            continue
        name = _field_key(key)[2]
        texts = [_text_with_helpers(ROOT / node_id.partition("::")[0]) for node_id in tests]
        if not any(re.search(rf"\b{re.escape(name)}\s*=", text) for text in texts):
            unmentioned.append(key)
    assert unmentioned == []


def test_no_key_is_listed_twice():
    keys = [key for _, _, group, _ in _assigned("REASONS") for key in group]
    assert len(keys) == len(set(keys))


def test_every_named_test_exists():
    missing = []
    for _, _, _, tests in _assigned("REASONS"):
        for node_id in tests:
            path, _, qualname = node_id.partition("::")
            file = ROOT / path
            if not file.is_file() or qualname not in _qualnames(file, "::"):
                missing.append(node_id)
    assert missing == []


def test_paper_and_reference_keys_are_mentioned_by_their_tests():
    """A private helper (``_name``) is reached through the public call
    that runs it, so only public names must appear."""
    unmentioned = []
    for key, tests in _keys(("paper", "reference")):
        texts = [_text_with_helpers(ROOT / node_id.partition("::")[0]) for node_id in tests]
        last = re.split(r"::|\.|/", key.removesuffix(".py"))[-1]
        pattern = re.compile(rf"\b{re.escape(last)}\b")
        if not last.startswith("_") and not any(pattern.search(t) for t in texts):
            unmentioned.append(key)
    assert unmentioned == []


def _census_module():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValueRule:
    FIELD = "core/service.py::ServiceConfig.retry_attempts"
    READER = "core/service.py::_build_session"

    def single_valued(self, *reads):
        census = _census_module()
        return census.single_valued([self.FIELD], [census.Read(self.FIELD, *r) for r in reads])

    def test_a_field_passed_only_with_its_default_is_flagged(self):
        assert self.single_valued((0, self.READER), (0, "core/service.py::__init__")) == [
            self.FIELD
        ]

    def test_a_second_value_only_where_nothing_reads_it_is_flagged(self):
        # The 5 reaches serialisation (code outside the package) and
        # validation only; the package itself reads the default.
        assert self.single_valued(
            (0, self.READER), (5, None), (5, "core/service.py::__post_init__")
        ) == [self.FIELD]

    def test_a_field_never_read_is_flagged(self):
        assert self.single_valued() == [self.FIELD]

    def test_a_field_read_with_two_values_passes(self):
        assert self.single_valued((0, self.READER), (5, self.READER)) == []

    def test_the_recorder_sees_package_reads_only(self):
        from repro.core.service import ServiceConfig
        from repro.placement.base import PlacementConfig

        census = _census_module()
        reads = set()
        with census.recording_config_reads(reads):
            config = ServiceConfig(retry_attempts=3, server_overrides={"U1": {}})
            dataclasses.asdict(config)
            assert config.placement.fractional is False
        # This test reads ``placement`` itself; ``fractional`` (package
        # code) reads ``kind``.
        assert census.values_in_use(reads) == {"placement/base.py::PlacementConfig.kind": {"dma"}}
        assert census.Read(
            "core/service.py::ServiceConfig.server_overrides", "{'U1': {}}", None
        ) in reads
        assert "__getattribute__" not in vars(ServiceConfig)
        assert "__getattribute__" not in vars(PlacementConfig)
