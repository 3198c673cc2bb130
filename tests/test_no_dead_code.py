"""Every top-level name and method in src/mppsi is used somewhere in src/mppsi.

A top-level function, class or assigned name, or a method of a top-level
class (dunders aside), counts as used when a Name, an Attribute or an import
alias anywhere in the package refers to it; the package's re-exports in
__init__.py count. Code that only tests
call is dead code to the package, so a replaced helper left behind shows
here. The allowlist holds the names kept for a ROADMAP item that will call
them, and it only shrinks: a listed name that gains a caller fails too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mppsi"

# Unused name -> the ROADMAP item that will use it.
WAITING = {
    "session.load_transcript": 7,  # mppsi verify reads a transcript file
    "audit.leader_view": 7,  # verify checks what the leader received
    "audit.database_view": 7,  # verify checks what each database received
    "audit.delivered_query_distribution": 11,  # joins the one audit stream or goes
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """The top-level function, class and assigned names of a module, and
    each top-level class's methods as "Class.method"."""
    names = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{n.name}" for n in node.body if isinstance(n, FUNCTIONS)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [
        name for name in names
        if not (name.split(".")[-1].startswith("__") and name.endswith("__"))
    ]


def references(tree):
    """Every name a module reads, as a Name, an Attribute or an import alias."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced(sources):
    """The "module.name" of each definition in sources (module -> text) that none reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(references, trees.values()))
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name.split(".")[-1] not in used
    }


def test_only_the_waiting_names_are_unused():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources) == set(WAITING)


def test_a_helper_left_behind_is_found():
    sources = {
        "__init__": "from .demo import run_demo\n__all__ = ['run_demo']\n",
        "demo": """
DEMOS = {}
_LIMIT: int = 3


def run_demo(name):
    return DEMOS[name], _LIMIT


def format_report(report):
    return str(report)


class DemoReport:
    def to_dict(self):
        return {}
""",
        "cli": "from . import demo\n\n\ndef main():\n    return demo.run_demo('sec4')\n",
    }
    assert unreferenced(sources) == {
        "demo.format_report", "demo.DemoReport", "demo.DemoReport.to_dict", "cli.main"
    }


def test_a_method_left_behind_is_found():
    # A replaced method stays behind in a class that is still used: its
    # class and its other methods are read, the method itself is not.
    sources = {
        "table": """
class Table:
    def __init__(self, probs):
        self.probs = probs

    @classmethod
    def from_counts(cls, counts):
        return cls(dict(counts))

    @classmethod
    def uniform_over(cls, outcomes):
        return cls.from_counts(dict.fromkeys(outcomes, 1))

    def is_uniform(self):
        return len(set(self.probs.values())) == 1
""",
        "check": """
from .table import Table


def check(counts):
    return Table.from_counts(counts).is_uniform()
""",
    }
    assert unreferenced(sources) == {"table.Table.uniform_over", "check.check"}
