"""The framing code caches only in bounded lru_caches.

encode_msg checks each (type, session id) pair once, in a cache. A
long-lived database endpoint frames a new session id every session, so a
cache without a bound would grow for as long as the process serves. So
wire.py may cache only in functions decorated with an lru_cache of a finite
maxsize: it gives no function any other cache decorator, writes no
module-level container from a function, gives no function a mutable default,
and declares nothing global.
"""

import ast
from pathlib import Path

import pytest

from test_audit_keeps_no_state import FUNCTIONS, mutable

pytestmark = pytest.mark.pins

WIRE = Path(__file__).resolve().parent.parent / "src" / "mppsi" / "wire.py"

# The container methods that change their container.
MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
    "remove", "discard", "clear", "appendleft", "__setitem__",
}


def bounded_lru_cache(decorator):
    """Whether a decorator is lru_cache(maxsize=n), n a positive int literal."""
    if not isinstance(decorator, ast.Call):
        return False
    name = getattr(decorator.func, "id", getattr(decorator.func, "attr", None))
    sizes = [*decorator.args[:1], *(k.value for k in decorator.keywords if k.arg == "maxsize")]
    return (
        name == "lru_cache"
        and len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def unbounded_caches(source):
    """What in a module's source can keep state without a bound: each cache
    decorator other than a bounded lru_cache, each module-level container a
    function writes, each function with a mutable default, and each global."""
    tree = ast.parse(source)
    containers = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and mutable(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            for decorator in node.decorator_list:
                if "cache" in ast.unparse(decorator) and not bounded_lru_cache(decorator):
                    found.add(f"cache {node.name}")
        if isinstance(node, FUNCTIONS):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            if any(d is not None and mutable(d) for d in defaults):
                found.add(f"default {node.name}")
            for inner in ast.walk(node):
                written = None
                if isinstance(inner, ast.Subscript) and not isinstance(inner.ctx, ast.Load):
                    written = inner.value
                elif isinstance(inner, ast.Attribute) and inner.attr in MUTATORS:
                    written = inner.value
                if isinstance(written, ast.Name) and written.id in containers:
                    found.add(f"written {written.id}")
        if isinstance(node, ast.Global):
            found.update(f"global {name}" for name in node.names)
    return found


def test_wire_caches_only_in_bounded_lru_caches():
    source = WIRE.read_text()
    assert unbounded_caches(source) == set()
    # The per-pair check of encode_msg is such a cache.
    assert "@functools.lru_cache(maxsize=" in source


def test_unbounded_state_is_found():
    sources = '''
import functools
from functools import cache, lru_cache

_SEEN = {}
_ORDER = []
CODES = {"query": 3}


@functools.lru_cache(maxsize=None)
def unbounded(key):
    return key


@lru_cache
def default_size(key):
    return key


@cache
def plain(key):
    return key


@functools.lru_cache(maxsize=64)
def bounded(key):
    return CODES[key]


@lru_cache(32)
def positional(key):
    return key


def remember(key, seen=[]):
    global _LAST
    _SEEN[key] = True
    _ORDER.append(key)
    return CODES.get(key)
'''
    assert unbounded_caches(sources) == {
        "cache unbounded", "cache default_size", "cache plain", "default remember",
        "global _LAST", "written _SEEN", "written _ORDER",
    }
