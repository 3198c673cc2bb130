"""Sessions run one scheme, the faithful one.

The scheme mutations of randomness.RandomnessPolicy are the negative controls
of the audit checks, not a session option. So no module of the package other
than audit.py, randomness.py and __init__.py names RandomnessPolicy or
FAITHFUL or has a parameter called policy, and in randomness.py only
completion takes a policy, FAITHFUL by default.
"""

import ast
import inspect
from pathlib import Path

from mppsi.randomness import FAITHFUL, completion

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mppsi"
POLICY_MODULES = {"audit.py", "randomness.py", "__init__.py"}
KNOBS = {"RandomnessPolicy", "FAITHFUL"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scheme_knobs(module, source):
    """Where a module's source lets a caller pick a scheme: each knob name it
    uses and each function taking a policy where the rules above forbid it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if module not in POLICY_MODULES:
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            found.update(f"{module} names {name}" for name in names & KNOBS)
        if isinstance(node, FUNCTIONS):
            name = getattr(node, "name", "<lambda>")
            takes = any(
                arg.arg == "policy" for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
            )
            allowed = module in {"audit.py", "__init__.py"} or (
                module == "randomness.py" and name == "completion"
            )
            if takes and not allowed:
                found.add(f"{module}: {name} takes policy")
    return found


def test_only_the_auditor_picks_a_scheme():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= POLICY_MODULES | {"session.py", "net.py"}
    assert set().union(*(scheme_knobs(path.name, path.read_text()) for path in modules)) == set()
    assert inspect.signature(completion).parameters["policy"].default is FAITHFUL


def test_a_scheme_knob_left_behind_is_found():
    planted = {
        "net.py": '''
from . import randomness
from .randomness import FAITHFUL, RandomnessPolicy as Knobs


def spawn_endpoints(config, policy=None):
    return randomness.RandomnessPolicy(), Knobs


run = lambda config, *, policy: config
''',
        "randomness.py": '''
def completion(free_values, modulus, num_clients, policy=FAITHFUL):
    return 0


def local_vector(client_id, eta, seed, policy=FAITHFUL):
    return [0] * eta
''',
        "audit.py": '''
def check_reliability(instance, policy=FAITHFUL):
    return RandomnessPolicy(zero_local=True)
''',
    }
    found = set().union(*(scheme_knobs(module, source) for module, source in planted.items()))
    assert found == {
        "net.py names FAITHFUL",
        "net.py names RandomnessPolicy",
        "net.py: spawn_endpoints takes policy",
        "net.py: <lambda> takes policy",
        "randomness.py: local_vector takes policy",
    }
