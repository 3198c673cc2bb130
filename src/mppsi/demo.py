"""Built-in worked examples with known expected outcomes.

Three fixture instances exercise the three interesting regimes: enough
databases for a single partition everywhere, too few databases (several base
vectors per client), and heterogeneous database counts with a forced leader
whose cost table shows a cheaper candidate existed.

A demo is a run of its fixture's config: run_demo returns the session's
report (SessionTranscript.report) with one check per expected report field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from .config import SessionConfig
from .model import PartyProfile
from .session import run_memory_session


@dataclass(frozen=True)
class DemoFixture:
    title: str
    config: SessionConfig
    # Report fields and the values the fixture's run must report.
    expected: Dict[str, object]


def _cfg(universe, parties, leader, seed) -> SessionConfig:
    return SessionConfig(
        universe_size=universe,
        parties=tuple(
            PartyProfile(pid, dbs, frozenset(elems)) for pid, dbs, elems in parties
        ),
        seed=seed,
        leader_override=leader,
    )


DEMOS: Dict[str, DemoFixture] = {
    "sec4": DemoFixture(
        title="three parties, three databases each, one shared element",
        config=_cfg(
            4,
            [(1, 3, [1, 2]), (2, 3, [1, 3]), (3, 3, [1, 4])],
            leader=3,
            seed=7,
        ),
        expected={"decoded": [1], "download_cost_actual": 6,
                  "cost_table": {"1": 6, "2": 6, "3": 6}},
    ),
    "sec7_1": DemoFixture(
        title="three parties, two databases per client (several base vectors)",
        config=_cfg(
            4,
            [(1, 2, [1, 2]), (2, 2, [1, 3]), (3, 2, [1, 4])],
            leader=3,
            seed=7,
        ),
        expected={"decoded": [1], "download_cost_actual": 8,
                  "cost_table": {"1": 8, "2": 8, "3": 8}},
    ),
    "sec7_2": DemoFixture(
        title="four parties, heterogeneous database counts, forced leader",
        config=_cfg(
            5,
            [
                (1, 2, [1, 2, 3, 4]),
                (2, 3, [1, 2, 4]),
                (3, 5, [1, 3, 4]),
                (4, 4, [1, 4, 5]),
            ],
            leader=4,
            seed=7,
        ),
        # Party 2 is actually the cheapest candidate; the fixture forces
        # party 4 to lead and the table keeps that visible.
        expected={"decoded": [1, 4], "download_cost_actual": 15,
                  "cost_table": {"1": 17, "2": 14, "3": 15, "4": 15}},
    ),
}


def run_demo(name: str, seed: Optional[int] = None) -> dict:
    """The fixture's session report, with its name, title and checks.

    Each expected field gives one check that the report holds its value;
    the demo passes when every check does.
    """
    fixture = DEMOS[name]
    config = fixture.config if seed is None else replace(fixture.config, seed=seed)
    report = run_memory_session(config).report()
    checks = [
        {"name": key, "passed": report[key] == value,
         "detail": f"expected {value}, got {report[key]}"}
        for key, value in fixture.expected.items()
    ]
    passed = all(check["passed"] for check in checks)
    return {**report, "name": name, "title": fixture.title, "checks": checks, "passed": passed}
