"""Span tracing of mppsi's layers, done from outside the package.

Each traced layer is a public function (or method) of an mppsi module. The
tracer replaces it, for the length of one traced op, at every name its
callers look it up by: every ``mppsi.*`` module namespace that binds the
same function object, or the class attribute for a method. Nothing under
``src/`` changes, and with tracing off nothing is replaced at all.

Spans are kept in memory as tuples ``(id, name, start, end, parent, op,
attrs)`` and written out as JSON lines when the run ends. A span started on
a thread with no open span of its own (an endpoint thread, a query thread)
takes the op's root span as its parent, so the children of a span are
exactly the calls it made on its own thread. Calls made tens of thousands
of times per op (the audit kernel) are folded: one record per (op, parent,
name) holding the call count and busy time, instead of one span per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# Layer name -> (home module, function name).
FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "config.parse_config": ("mppsi.config", "parse_config"),
    "client.answer_all": ("mppsi.client", "answer_all"),
    "leader.generate_queries": ("mppsi.leader", "generate_queries"),
    "seeding.draw_vector": ("mppsi.seeding", "draw_vector"),
    "protocol.prepare_session": ("mppsi.protocol", "prepare_session"),
    "leader.make_partition_plan": ("mppsi.leader", "make_partition_plan"),
    "randomness.build_bundle": ("mppsi.randomness", "build_bundle"),
    "leader.decode": ("mppsi.leader", "decode"),
    "leader.decode_values": ("mppsi.leader", "decode_values"),
    "session.transcript_from_run": ("mppsi.session", "transcript_from_run"),
    "wire.encode_msg": ("mppsi.wire", "encode_msg"),
    "wire.decode_msg": ("mppsi.wire", "decode_msg"),
    "net.spawn_endpoints": ("mppsi.net", "spawn_endpoints"),
    "net.run_networked_session": ("mppsi.net", "run_networked_session"),
    "audit.compile_instance": ("mppsi.audit", "compile_instance"),
    "audit.query_inner_products": ("mppsi.audit", "query_inner_products"),
    "audit.answers_for_realization": ("mppsi.audit", "answers_for_realization"),
    "audit.check_reliability": ("mppsi.audit", "check_reliability"),
    "audit.check_db1_uniformity": ("mppsi.audit", "check_db1_uniformity"),
    "audit.check_z_uniformity": ("mppsi.audit", "check_z_uniformity"),
    "audit.check_indicator_privacy": ("mppsi.audit", "check_indicator_privacy"),
}

# Layer name -> (module, class, method name).
METHODS: Dict[str, Tuple[str, str, str]] = {
    "session.serialize": ("mppsi.session", "SessionTranscript", "serialize"),
    "net.stop": ("mppsi.net", "DatabaseEndpoint", "stop"),
}

FOLDED = frozenset({"audit.answers_for_realization", "leader.decode_values"})


def _encode_attrs(args, result) -> dict:
    msg = args[0]
    return {"bytes": len(result), "phase": msg.phase, "values": len(msg.values)}


# Layer name -> what to record about one call, from its arguments and result.
ATTRS: Dict[str, Callable[[tuple, object], dict]] = {
    "seeding.draw_vector": lambda args, result: {"values": len(result)},
    "leader.decode": lambda args, result: {"answers": result.download_cost_actual},
    "session.serialize": lambda args, result: {"bytes": len(result)},
    "wire.encode_msg": _encode_attrs,
    "net.spawn_endpoints": lambda args, result: {"endpoints": len(result)},
    "audit.check_reliability": lambda args, result: {"cases": result.cases},
}


class Tracer:
    """Collects spans for the ops it is told about; idle otherwise."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.folded: Dict[Tuple[int, int, str], List[float]] = {}
        self.op: Optional[int] = None
        self._root: Optional[int] = None
        self._root_name = "op"
        self._root_start = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fold_lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int, name: str = "op") -> None:
        """Attribute the spans that follow to op, under a root span of that name."""
        self._root = next(self._ids)
        self._root_name = name
        self._root_start = time.perf_counter()
        self.op = op

    def end_op(self) -> None:
        end = time.perf_counter()
        self.spans.append((self._root, self._root_name, self._root_start, end, None, self.op, None))
        self.op = None
        self._root = None

    # -- wrapping -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)
        clock = time.perf_counter
        tracer = self

        if name in FOLDED:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                op = tracer.op
                if op is None:
                    return fn(*args, **kwargs)
                stack = tracer._stack()
                parent = stack[-1] if stack else tracer._root
                start = clock()
                result = fn(*args, **kwargs)
                busy = clock() - start
                key = (op, parent, name)
                with tracer._fold_lock:
                    slot = tracer.folded.get(key)
                    if slot is None:
                        tracer.folded[key] = [1, busy]
                    else:
                        slot[0] += 1
                        slot[1] += busy
                return result

            return folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = attrs(args, result) if attrs is not None else None
            tracer.spans.append((span_id, name, start, end, parent, op, extra))
            return result

        return traced

    def install(self) -> None:
        """Replace every traced layer at each name it is looked up by."""
        if self._saved:
            return
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("mppsi") and m]
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op, attrs in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")
            for (op, parent, name), (calls, busy) in sorted(self.folded.items()):
                out.write(json.dumps({
                    "name": name, "op": op, "parent": parent,
                    "folded_calls": calls, "busy_s": busy,
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Metric name -> unit, in the order they are reported.
PER_LAYER_UNITS: Dict[str, str] = {
    "client.answer_all.s": "s",
    "client.answer_all.calls": "count",
    "leader.generate_queries.s": "s",
    "seeding.draw_vector.s": "s",
    "seeding.draw_vector.values": "count",
    "protocol.prepare_session.s": "s",
    "leader.make_partition_plan.s": "s",
    "randomness.build_bundle.s": "s",
    "leader.decode.s": "s",
    "leader.decode.answers": "count",
    "session.transcript_from_run.s": "s",
    "session.serialize.s": "s",
    "session.serialize.bytes": "bytes",
    "wire.encode_msg.s": "s",
    "wire.encode_msg.frames": "count",
    "wire.decode_msg.s": "s",
    "wire.decode_msg.frames": "count",
    "wire.bytes.randomness": "bytes",
    "wire.bytes.query": "bytes",
    "wire.bytes.answer": "bytes",
    "wire.query.values": "count",
    "net.spawn_endpoints.s": "s",
    "net.endpoints": "count",
    "net.run_networked_session.s": "s",
    "net.run_networked_session.self_s": "s",
    "net.stop.s": "s",
    "audit.compile_instance.s": "s",
    "audit.query_inner_products.s": "s",
    "audit.answers_for_realization.s": "s",
    "audit.answers_for_realization.calls": "count",
    "leader.decode_values.s": "s",
    "leader.decode_values.calls": "count",
    "audit.check_reliability.s": "s",
    "audit.realizations_per_s": "1/s",
    "audit.masking_checks.s": "s",
    "config.parse_config.s": "s",
    "trace.overhead_s": "s",
}

_BUSY = [
    "client.answer_all", "leader.generate_queries", "seeding.draw_vector",
    "protocol.prepare_session", "leader.make_partition_plan",
    "randomness.build_bundle", "leader.decode", "session.transcript_from_run",
    "session.serialize", "wire.encode_msg", "wire.decode_msg",
    "net.spawn_endpoints", "net.run_networked_session", "net.stop",
    "audit.compile_instance", "audit.query_inner_products",
    "audit.answers_for_realization", "leader.decode_values",
    "audit.check_reliability", "config.parse_config",
]
_CALLS = {
    "client.answer_all.calls": "client.answer_all",
    "wire.encode_msg.frames": "wire.encode_msg",
    "wire.decode_msg.frames": "wire.decode_msg",
    "audit.answers_for_realization.calls": "audit.answers_for_realization",
    "leader.decode_values.calls": "leader.decode_values",
}
_SUMMED_ATTRS = {
    "seeding.draw_vector.values": ("seeding.draw_vector", "values"),
    "leader.decode.answers": ("leader.decode", "answers"),
    "session.serialize.bytes": ("session.serialize", "bytes"),
    "net.endpoints": ("net.spawn_endpoints", "endpoints"),
}
_MASKING = ("audit.check_db1_uniformity", "audit.check_z_uniformity", "audit.check_indicator_privacy")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def op_layer_values(spans: List[tuple], folded: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer numbers of one op from its spans and folded records."""
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for _, name, start, end, _, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    for name, (count, seconds) in folded.items():
        busy[name] = busy.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + count

    values: Dict[str, float] = {f"{name}.s": busy.get(name, 0.0) for name in _BUSY}
    for metric, name in _CALLS.items():
        values[metric] = calls.get(name, 0)
    for metric, (name, key) in _SUMMED_ATTRS.items():
        values[metric] = sum(s[6][key] for s in spans if s[1] == name)

    for phase in ("randomness", "query", "answer"):
        values[f"wire.bytes.{phase}"] = sum(
            s[6]["bytes"] for s in spans if s[1] == "wire.encode_msg" and s[6]["phase"] == phase
        )
    values["wire.query.values"] = sum(
        s[6]["values"] for s in spans if s[1] == "wire.encode_msg" and s[6]["phase"] == "query"
    )

    runs = [s for s in spans if s[1] == "net.run_networked_session"]
    self_s = 0.0
    for run in runs:
        children = [(max(s[2], run[2]), min(s[3], run[3])) for s in spans if s[4] == run[0]]
        self_s += (run[3] - run[2]) - _covered([c for c in children if c[1] > c[0]])
    values["net.run_networked_session.self_s"] = self_s

    rates = [s[6]["cases"] / (s[3] - s[2]) for s in spans if s[1] == "audit.check_reliability"]
    values["audit.realizations_per_s"] = statistics.median(rates) if rates else 0.0
    values["audit.masking_checks.s"] = sum(s[3] - s[2] for s in spans if s[1] in _MASKING)
    return values


def layer_metrics(tracer: Tracer, ops: List[int], parse_ops: List[int]) -> Dict[str, float]:
    """Per-op medians over the traced ops; parse time over the traced parses."""
    by_op: Dict[int, List[tuple]] = {}
    for span in tracer.spans:
        by_op.setdefault(span[5], []).append(span)
    folded_by_op: Dict[int, Dict[str, List[float]]] = {}
    for (op, _, name), (count, seconds) in tracer.folded.items():
        slot = folded_by_op.setdefault(op, {}).setdefault(name, [0, 0.0])
        slot[0] += count
        slot[1] += seconds

    per_op = [op_layer_values(by_op.get(op, []), folded_by_op.get(op, {})) for op in ops]
    metrics = {
        name: statistics.median(values[name] for values in per_op)
        for name in per_op[0]
    }
    parses = [
        s[3] - s[2] for op in parse_ops for s in by_op.get(op, []) if s[1] == "config.parse_config"
    ]
    metrics["config.parse_config.s"] = statistics.median(parses)
    return metrics
