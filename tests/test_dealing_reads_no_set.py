"""The election, the plan shape and the dealing read the public parameters alone.

A party's set is private; model.PublicParameters holds K, each party's
database count and set size, the leader and the addresses. So no code of
randomness.py, nor leader.cost_table, leader.make_plan_shape or
protocol.prepare_session, reads a .data_set attribute or names
PartyProfile or SessionConfig, the types that carry the sets.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mppsi"
# Module -> its functions that read no set, or None for the whole module.
PUBLIC_ONLY = {
    "randomness.py": None,
    "leader.py": ("cost_table", "make_plan_shape"),
    "protocol.py": ("prepare_session",),
}
SET_TYPES = {"PartyProfile", "SessionConfig"}


def set_reads(module, source):
    """Where the public-only code of a module's source reads a set, and
    each public-only function it lacks."""
    tree = ast.parse(source)
    functions = PUBLIC_ONLY[module]
    if functions is None:
        scopes = {module: tree}
    else:
        scopes = {
            f"{module}: {node.name}": node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in functions
        }
    found = {
        f"{module} has no {name}" for name in functions or () if f"{module}: {name}" not in scopes
    }
    for where, scope in scopes.items():
        for node in ast.walk(scope):
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:  # a name, an attribute, or a string such as an annotation
                names = {getattr(node, key, None) for key in ("id", "attr", "value")}
            found.update(f"{where} names {name}" for name in names & SET_TYPES)
            if isinstance(node, ast.Attribute) and node.attr == "data_set":
                found.add(f"{where} reads .data_set")
    return found


def test_the_election_shape_and_dealing_read_no_set():
    found = set()
    for module in PUBLIC_ONLY:
        found |= set_reads(module, (PACKAGE / module).read_text())
    assert found == set()


def test_a_set_read_is_found():
    planted = {
        "randomness.py": '''
from .model import PartyProfile


def build_bundle(public, seed, session_id, clients):
    return [sorted(client.data_set) for client in clients]
''',
        "leader.py": '''
def make_plan_shape(public, config: "SessionConfig"):
    return len(config.parties[0].data_set)


def make_partition_plan(shape, leader):
    return sorted(leader.data_set)
''',
        "protocol.py": '''
from . import config


def prepare_session(public):
    return config.SessionConfig(public.universe_size, (), 0)


def make_session_id(config):
    return sorted(config.parties[0].data_set)
''',
    }
    found = set().union(*(set_reads(module, source) for module, source in planted.items()))
    assert found == {
        "randomness.py names PartyProfile",
        "randomness.py reads .data_set",
        "leader.py has no cost_table",
        "leader.py: make_plan_shape names SessionConfig",
        "leader.py: make_plan_shape reads .data_set",
        "protocol.py: prepare_session names SessionConfig",
    }
