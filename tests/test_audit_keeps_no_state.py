"""The auditor keeps no state past a check call.

Every op of the audit benchmark audits with one seed and the same sizes, so
a cache that outlived a check would skip work on every op after the first:
the benchmark would time the cache, not the audit. So audit.py may cache
only _scale_tables, whose translate tables are constants of the modulus
alone. It binds no mutable container at module or class level, gives no
function a mutable default, and declares nothing global.
"""

import ast
from pathlib import Path

AUDIT = Path(__file__).resolve().parent.parent / "src" / "mppsi" / "audit.py"

CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONTAINER_CALLS = {"list", "dict", "set", "bytearray", "Counter", "defaultdict", "deque"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def mutable(node):
    """Whether an expression makes a mutable container."""
    if isinstance(node, CONTAINERS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) in CONTAINER_CALLS
    return False


def kept_state(source):
    """What in a module's source can hold state past a call: each cached
    function or method, each module- or class-level name bound to a mutable
    container, each function with a mutable default, and each global."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if any("cache" in ast.unparse(d) for d in node.decorator_list):
                found.add(f"cache {node.name}")
        if isinstance(node, FUNCTIONS):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            if any(d is not None and mutable(d) for d in defaults):
                found.add(f"default {node.name}")
        if isinstance(node, ast.Global):
            found.update(f"global {name}" for name in node.names)
    scopes = [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if mutable(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.update(
                        f"container {n.id}"
                        for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                    )
    return found


def test_the_auditor_caches_only_its_scale_tables():
    assert kept_state(AUDIT.read_text()) == {"cache _scale_tables"}


def test_state_left_behind_is_found():
    sources = '''
import functools
from collections import Counter

_MEMO = {}
SEEN: list = []
COUNTS = Counter()
LIMIT = 3
NAMES = ("a", "b")


class Walk:
    kept = []

    @functools.cached_property
    def blocks(self):
        return []


@functools.lru_cache(maxsize=None)
def rows(plan):
    return plan


def draw(seed, drawn=[]):
    global LIMIT
    return drawn
'''
    assert kept_state(sources) == {
        "container _MEMO", "container SEEN", "container COUNTS", "container kept",
        "cache blocks", "cache rows", "default draw", "global LIMIT",
    }
