"""The benchmark's workloads: seeded inputs, one op each, and its checks.

Inputs are made from the workload seed alone and reach mppsi only as config
JSON text, parsed by ``mppsi.config.parse_config``. Every op of a workload
has the same shape (party count, database counts, universe, set sizes and
intersection size); which party leads and which elements the sets hold are
drawn afresh for every op.

The checks compare each op's output with what this file works out on its
own from the generated sets: plain Python set intersection, the paper's
download-cost formula, the field size, and the audit's enumeration size.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

# The benchmark measures the checkout it sits in, never an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "mppsi").is_dir():
    raise SystemExit(f"no mppsi package under {SRC}: run from the root of a checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mppsi import audit, config, net  # noqa: E402
from mppsi.config import SessionConfig  # noqa: E402
from mppsi.randomness import RandomnessPolicy  # noqa: E402
from mppsi.session import SessionTranscript, run_memory_session  # noqa: E402
from mppsi.wire import encode_msg  # noqa: E402


@dataclass(frozen=True)
class Shape:
    """What every op of a workload has in common."""

    parties: int
    databases: int
    universe: int
    leader_size: int
    client_size: int
    common: int  # leader elements every client holds: the intersection size


@dataclass(frozen=True)
class Instance:
    """One op's input: the config text plus the sets it was made from."""

    text: str
    universe: int
    databases: Dict[int, int]
    sets: Dict[int, FrozenSet[int]]


def make_instance(shape: Shape, rng: random.Random, transport: str = "memory") -> Instance:
    """Random sets of the given shape; a random party gets the small set.

    The intersection is a random ``common``-subset of the leader's set. Each
    other leader element is held by a random proper subset of the clients,
    so indicators are checked at every deficient column sum. Clients are
    filled up with elements outside the leader's set.
    """
    universe = range(1, shape.universe + 1)
    ids = list(range(1, shape.parties + 1))
    leader = rng.choice(ids)
    clients = [p for p in ids if p != leader]
    leader_set = rng.sample(universe, shape.leader_size)
    common = set(rng.sample(leader_set, shape.common))
    held = {c: set(common) for c in clients}
    for element in leader_set:
        if element not in common:
            for c in rng.sample(clients, rng.randrange(len(clients))):
                held[c].add(element)
    outside = sorted(set(universe) - set(leader_set))
    for c in clients:
        held[c].update(rng.sample(outside, shape.client_size - len(held[c])))
    sets = {leader: frozenset(leader_set), **{c: frozenset(s) for c, s in held.items()}}
    doc = {
        "universe_size": shape.universe,
        "parties": [
            {"id": p, "databases": shape.databases, "set": sorted(sets[p])} for p in ids
        ],
        "seed": rng.getrandbits(64),
        "transport": transport,
    }
    return Instance(
        text=json.dumps(doc),
        universe=shape.universe,
        databases={p: shape.databases for p in ids},
        sets=sets,
    )


# ---------------------------------------------------------------------------
# Independent expectations
# ---------------------------------------------------------------------------


def smallest_prime_at_least(n: int) -> int:
    candidate = max(n, 2)
    while any(candidate % d == 0 for d in range(2, int(candidate ** 0.5) + 1)):
        candidate += 1
    return candidate


def formula_costs(inst: Instance) -> Dict[int, Optional[int]]:
    """D_t = sum over i != t of ceil(|P_t| N_i / (N_i - 1)); None if infeasible."""
    costs: Dict[int, Optional[int]] = {}
    for t, own in inst.sets.items():
        others = [inst.databases[i] for i in inst.sets if i != t]
        if min(others) < 2:
            costs[t] = None
        else:
            costs[t] = sum(-(-len(own) * n // (n - 1)) for n in others)
    return costs


def expected_leader(inst: Instance) -> Tuple[int, int]:
    """The argmin and the minimum of the formula; ties go to the lowest id."""
    costs = formula_costs(inst)
    cost, leader = min((c, t) for t, c in costs.items() if c is not None)
    return leader, cost


def true_intersection(inst: Instance) -> FrozenSet[int]:
    return frozenset(set.intersection(*(set(s) for s in inst.sets.values())))


def check_session(inst: Instance, transcript: SessionTranscript) -> List[str]:
    """Everything wrong with one session's transcript; empty when correct."""
    problems: List[str] = []
    truth = true_intersection(inst)
    result = transcript.result
    if result.decoded != truth:
        problems.append(f"decoded {sorted(result.decoded)} != intersection {sorted(truth)}")
    leader, cost = expected_leader(inst)
    if transcript.leader_id != leader:
        problems.append(f"leader {transcript.leader_id} != formula argmin {leader}")
    if result.download_cost_actual != cost:
        problems.append(f"download cost {result.download_cost_actual} != formula minimum {cost}")
    modulus = smallest_prime_at_least(len(inst.sets))
    queries = [m for m in transcript.messages if m.type == "query"]
    answers = [m for m in transcript.messages if m.type == "answer"]
    if len(queries) != cost or len(answers) != cost:
        problems.append(f"{len(queries)} queries, {len(answers)} answers; D = {cost}")
    for q in queries:
        if len(q.values) != inst.universe or not all(0 <= v < modulus for v in q.values):
            problems.append(f"query to {q.dest} is not {inst.universe} values in [0, {modulus})")
            break
    for m in transcript.messages:
        if m.phase == "randomness" and leader in (m.origin[0], m.dest[0]):
            problems.append(f"randomness message {m.origin}->{m.dest} names the leader")
            break
    indicators = {e: int(v) for e, v in result.indicators.items()}
    if set(indicators) != set(inst.sets[leader]):
        problems.append("indicators are not keyed by the leader's set")
    elif any((v == 0) != (e in truth) for e, v in indicators.items()):
        problems.append("an indicator is zero off the intersection or nonzero on it")
    return problems


def check_serialized(inst: Instance, data: bytes) -> List[str]:
    """The serialized transcript carries the same decoded set and leader."""
    raw = json.loads(data)
    problems = []
    if raw["result"]["decoded"] != sorted(true_intersection(inst)):
        problems.append("serialized decoded set differs from the intersection")
    if raw["leader"] != expected_leader(inst)[0]:
        problems.append("serialized leader differs from the formula argmin")
    return problems


def expected_audit_space(inst: Instance) -> int:
    """L^(n_s + n_t) (L - 1): local slots, free individual values, multiplier."""
    leader, _ = expected_leader(inst)
    size = len(inst.sets[leader])
    clients = [i for i in inst.sets if i != leader]
    n_s = sum(-(-size // (inst.databases[i] - 1)) for i in clients)
    n_t = (len(clients) - 1) * size
    modulus = smallest_prime_at_least(len(inst.sets))
    return modulus ** (n_s + n_t) * (modulus - 1)


H_SAMPLES = 2  # base-vector sets check_reliability samples by default


def check_audit(inst: Instance, reports: Tuple) -> List[str]:
    reliability = reports[0]
    problems = []
    for name, report in zip(("reliability", "db1", "z", "indicator"), reports):
        if not report.passed:
            problems.append(f"{name} audit failed")
    if not reliability.exhaustive_randomness:
        problems.append("randomness was sampled, not enumerated")
    space = expected_audit_space(inst)
    if reliability.space != space or reliability.cases != H_SAMPLES * space:
        problems.append(
            f"{reliability.cases} cases over a space of {reliability.space}; "
            f"expected {H_SAMPLES} x {space}"
        )
    return problems


def wire_bytes(transcript: SessionTranscript) -> int:
    return sum(len(encode_msg(m)) for m in transcript.messages)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Timed:
    """One op: its latency, the wall time it held the loop, and its output."""

    latency: float
    wall: float
    output: object


def mem_op(config: SessionConfig) -> Timed:
    start = time.perf_counter()
    transcript = run_memory_session(config)
    data = transcript.serialize()
    latency = time.perf_counter() - start
    return Timed(latency, latency, (transcript, data))


def mem_check(inst: Instance, config: SessionConfig, output) -> Tuple[List[str], int]:
    transcript, data = output
    problems = check_session(inst, transcript) + check_serialized(inst, data)
    return problems, wire_bytes(transcript)


def net_op(config: SessionConfig) -> Timed:
    """Spawn endpoints, run the session, then stop every endpoint in turn.

    The op's latency ends when the decoded transcript returns; the teardown
    counts toward the wall time the op holds the loop.
    """
    start = time.perf_counter()
    endpoints = net.spawn_endpoints(config)
    try:
        transcript = net.run_networked_session(config, endpoints)
        latency = time.perf_counter() - start
    finally:
        for endpoint in endpoints:
            endpoint.stop()
    return Timed(latency, time.perf_counter() - start, transcript)


def net_check(inst: Instance, config: SessionConfig, transcript) -> Tuple[List[str], int]:
    return check_session(inst, transcript), wire_bytes(transcript)


def audit_instance(config: SessionConfig) -> "audit.AuditInstance":
    return audit.AuditInstance(config.parties, config.universe, config.leader_override)


def audit_op(config: SessionConfig) -> Timed:
    instance = audit_instance(config)
    start = time.perf_counter()
    reports = (
        audit.check_reliability(instance),
        audit.check_db1_uniformity(instance),
        audit.check_z_uniformity(instance),
        audit.check_indicator_privacy(instance),
    )
    latency = time.perf_counter() - start
    return Timed(latency, latency, reports)


def audit_check(inst: Instance, config: SessionConfig, reports) -> Tuple[List[str], int]:
    # The audited instance also runs as a live session, so the audit and
    # the protocol are checked against the same intersection; its framed
    # messages are the workload's wire footprint.
    transcript = run_memory_session(config)
    return check_audit(inst, reports) + check_session(inst, transcript), wire_bytes(transcript)


# ---------------------------------------------------------------------------
# Once-per-run property checks
# ---------------------------------------------------------------------------


def transports_agree(config: SessionConfig) -> List[str]:
    """A networked session serializes to the same bytes as the memory one."""
    endpoints = net.spawn_endpoints(config)
    try:
        over_tcp = net.run_networked_session(config, endpoints).serialize()
    finally:
        for endpoint in endpoints:
            endpoint.stop()
    if over_tcp != run_memory_session(config).serialize():
        return ["networked transcript differs from the memory transcript"]
    return []


def audit_has_power(config: SessionConfig) -> List[str]:
    """A broken correlation sum must make the reliability audit fail."""
    broken = RandomnessPolicy(correlation_offset=1)
    if audit.check_reliability(audit_instance(config), policy=broken).passed:
        return ["reliability audit passed a broken correlation sum"]
    return []


def parse(text: str) -> SessionConfig:
    # Looked up on the module at call time, so a traced run sees the call.
    return config.parse_config(text)


def no_property(config: SessionConfig) -> List[str]:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    transport: str
    op: Callable[[SessionConfig], Timed]
    check: Callable[[Instance, SessionConfig, object], Tuple[List[str], int]]
    prop: Callable[[SessionConfig], List[str]]
    nominal_op_s: float  # sets the op count of a run from --seconds; never measured

    def instances(self, seed: int, count: int) -> List[Instance]:
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        return [make_instance(self.shape, rng, self.transport) for _ in range(count)]


WORKLOADS: Dict[str, Workload] = {
    "mem-wide": Workload(
        name="mem-wide", shape=Shape(4, 4, 1000, 100, 250, 25), transport="memory",
        op=mem_op, check=mem_check, prop=no_property, nominal_op_s=0.75,
    ),
    "net-mid": Workload(
        name="net-mid", shape=Shape(3, 3, 1000, 30, 250, 7), transport="net",
        op=net_op, check=net_check, prop=transports_agree, nominal_op_s=0.9,
    ),
    "audit-exhaustive": Workload(
        name="audit-exhaustive", shape=Shape(3, 2, 6, 3, 4, 1), transport="memory",
        op=audit_op, check=audit_check, prop=audit_has_power, nominal_op_s=1.0,
    ),
}

# Small shapes of the same workloads, and the op count of a run on them, for
# the benchmark's own tests.
TINY_OPS = 3
TINY_SHAPES: Dict[str, Shape] = {
    "mem-wide": Shape(4, 4, 60, 8, 20, 2),
    "net-mid": Shape(3, 3, 60, 6, 20, 2),
    "audit-exhaustive": Shape(3, 2, 4, 2, 3, 1),
}
