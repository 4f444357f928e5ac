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
on a real config; ``TestArmRule`` runs the arm rule (which branch arms
exist, which are error arms, which did not run) on synthetic source and
hit lines.
"""

import ast
import dataclasses
import importlib.util
import re
import textwrap
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "benchmarks" / "census.py"
PACKAGE = ROOT / "src" / "repro"
KINDS = {"paper", "fault", "reference", "bench"}


@lru_cache(maxsize=None)
def _census_body():
    """census.py's module-level statements, parsed once per session."""
    return ast.parse(CENSUS.read_text()).body


def _assigned(name):
    """The literal value of a module-level ``name = ...`` in census.py."""
    for node in _census_body():
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


def _is_arm_key(key):
    return "::" in key.partition("::")[2]


@lru_cache(maxsize=None)
def _arm_keys(path):
    """The keys of every arm of one file under ``src/repro``."""
    file = PACKAGE / path
    return {arm.key for arm in _census_module().arms(file.read_text(), path)}


def test_every_key_names_existing_code():
    stale = []
    for key, _ in _keys():
        if _field_key(key) or _is_arm_key(key):
            continue
        path, _, qualname = key.partition("::")
        file = PACKAGE / path
        if not file.is_file() or (qualname and qualname not in _qualnames(file)):
            stale.append(key)
    assert stale == []


def test_every_arm_key_names_an_existing_arm():
    keys = [key for key, _ in _keys() if _is_arm_key(key)]
    assert keys, "the arm rule keeps no arm"
    stale = [
        key for key in keys
        if not (PACKAGE / key.partition("::")[0]).is_file()
        or key not in _arm_keys(key.partition("::")[0])
    ]
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
        if _is_arm_key(key):
            key = key.rpartition("::")[0]
        last = re.split(r"::|\.|/", key.removesuffix(".py"))[-1]
        pattern = re.compile(rf"\b{re.escape(last)}\b")
        if not last.startswith("_") and not any(pattern.search(t) for t in texts):
            unmentioned.append(key)
    assert unmentioned == []


@lru_cache(maxsize=None)
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
        from repro.storage.array import DiskArray

        census = _census_module()
        reads = set()
        with census.recording_config_reads(reads):
            config = ServiceConfig(retry_attempts=3, server_overrides={"U1": {}})
            dataclasses.asdict(config)
            config.placement.build(DiskArray(1, 100.0, 10.0))
        # This test reads ``placement`` itself; ``build`` (package code)
        # reads ``kind``.
        assert census.values_in_use(reads) == {"placement/base.py::PlacementConfig.kind": {"dma"}}
        assert census.Read(
            "core/service.py::ServiceConfig.server_overrides", "{'U1': {}}", None
        ) in reads
        assert "__getattribute__" not in vars(ServiceConfig)
        assert "__getattribute__" not in vars(PlacementConfig)


SOURCE = textwrap.dedent("""\
    def grade(x):
        if x > 90:
            mark = "A"
        elif x > 50:
            mark = "B"
        else:
            mark = "C"
        for step in range(x):
            if step == 7:
                break
        else:
            mark += "!"
        try:
            value = int(mark)
        except ValueError:
            value = 0
        else:
            value += 1
        if value < 0:
            raise ValueError(value)
        return mark


    class Box:
        def open(self):
            while self:
                return 1
    """)


class TestArmRule:
    def arms(self):
        return {arm.label: arm for arm in _census_module().arms(SOURCE, "m.py")}

    def test_an_elif_chain_is_keyed_by_each_condition(self):
        arms = self.arms()
        assert [label for label in arms if "x >" in label] == [
            "if x > 90", "if x > 50", "else of if x > 50",
        ]
        assert arms["if x > 50"].key == "m.py::grade::if x > 50"
        assert arms["else of if x > 50"].entry == (7,)

    def test_for_else_and_try_else_are_arms(self):
        arms = self.arms()
        assert arms["for step in range(x)"].entry == (9,)
        assert arms["else of for step in range(x)"].first == 12
        assert arms["else of try"].entry == (18,)
        assert arms["if step == 7"].within == "m.py::grade::for step in range(x)"
        assert _census_module().arms(SOURCE, "m.py")[-1].key == "m.py::Box.open::while self"

    def test_raise_ending_arms_and_except_handlers_are_error(self):
        errors = {label for label, arm in self.arms().items() if arm.error}
        assert errors == {"except ValueError", "if value < 0"}

    def test_an_arm_runs_when_its_first_statement_does(self):
        census = _census_module()
        # grade(95): the first arm, the loop to its break, int("A") fails.
        hits = {2, 3, 8, 9, 10, 11, 14, 15, 16, 19, 21}
        unrun = census.unrun_arms(SOURCE, "m.py", hits, {1})
        assert [arm.label for arm in unrun] == [
            "if x > 50", "else of if x > 50", "else of for step in range(x)",
            "else of try", "if value < 0",
        ]
        # A function no call reached is the function rule's: no arms.
        assert census.unrun_arms(SOURCE, "m.py", set(), {25}) == [
            arm for arm in census.arms(SOURCE, "m.py") if arm.qualname == "Box.open"
        ]

    def test_an_arm_inside_an_unrun_arm_follows_it(self):
        census = _census_module()
        unrun = census.unrun_arms(SOURCE, "m.py", {2, 3, 8, 14, 15, 19, 21}, {1})
        labels = [arm.label for arm in unrun]
        assert "for step in range(x)" in labels and "if step == 7" not in labels

    def test_a_stale_arm_key_is_flagged(self):
        census = _census_module()
        unrun = census.unrun_arms(SOURCE, "m.py", {2, 3, 8, 9, 10, 11, 14, 15, 16, 19, 21}, {1})
        reasons = [("fault", "why", ["m.py::grade::if x > 50",
                                     "m.py::grade::if x > 90",
                                     "m.py::grade::if value < 0",
                                     "m.py::grade::if gone"], ["t"])]
        # It ran, it is an error arm (not gated), or it does not exist.
        assert census.stale_arm_keys(unrun, reasons) == [
            "m.py::grade::if x > 90", "m.py::grade::if value < 0", "m.py::grade::if gone",
        ]
