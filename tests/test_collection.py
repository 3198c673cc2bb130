"""Every test defined in a test module is one that pytest collects.

pytest collects the test functions of a module and the test methods of its
classes named Test*. A test function nested in another function, as a
class's method becomes when a module-level function is inserted above it,
or a test method of a class with another name, is skipped without a
warning. This reads every test module of the suite with ast and finds them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT)
    for directory in ("tests", "perfbench")
    for path in (ROOT / directory).rglob("test_*.py")
)


def uncollected(source):
    """The (line, name) of each test definition in source that pytest skips."""
    found = []

    def visit(node, in_function, class_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_other_class = class_name is not None and not class_name.startswith("Test")
                if child.name.startswith("test") and (in_function or in_other_class):
                    found.append((child.lineno, child.name))
                visit(child, True, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, in_function, child.name)
            else:
                visit(child, in_function, class_name)

    visit(ast.parse(source), False, None)
    return found


def test_the_suite_has_test_modules():
    assert Path("tests/test_collection.py") in MODULES
    assert Path("perfbench/test_perfbench.py") in MODULES


@pytest.mark.parametrize("module", MODULES, ids=str)
def test_every_test_is_collected(module):
    assert uncollected((ROOT / module).read_text(encoding="utf-8")) == []


def test_a_method_cut_off_from_its_class_is_found():
    source = """
class TestZUniformity:
    def test_kept(self):
        pass


def test_inserted():
    pass

    def test_cut_off(self):
        pass


class Helper:
    def test_in_a_helper(self):
        pass

    def helper(self):
        def test_nested():
            pass


class TestOuter:
    class TestInner:
        def test_collected(self):
            pass
"""
    assert uncollected(source) == [
        (10, "test_cut_off"), (15, "test_in_a_helper"), (19, "test_nested")
    ]
