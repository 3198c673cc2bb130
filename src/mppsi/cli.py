"""Command-line interface.

Subcommands:

* run: execute a session from a config file and report the decoded
  intersection (optionally writing the transcript file);
* cost: print the per-candidate download-cost table and the elected leader;
* audit: run the exact enumeration checks against the configured instance;
* demo: run a built-in fixture and check its expected numbers;
* serve-db: run one database endpoint for the networked transport.

Exit codes: 0 success, 1 check failure or internal error, 2 config error,
3 infeasible instance, 4 transport error, 5 protocol violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from . import audit as audit_mod
from .config import SessionConfig, load_config
from .demo import DEMOS, format_report, run_demo
from .errors import BoundExceededError, ConfigError, MppsiError
from .leader import make_partition_plan
from .model import Universe
from .protocol import prepare_session
from .randomness import RandomnessPolicy
from .session import run_session


def _apply_overrides(config: SessionConfig, args) -> SessionConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "leader", None) is not None:
        config = replace(config, leader_override=args.leader)
    transport = getattr(args, "transport", None)
    if transport is not None:
        config = replace(config, transport={"mem": "memory", "net": "net"}[transport])
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    transcript = run_session(config)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(transcript.serialize())
    payload = {
        "session_id": transcript.session_id,
        "leader": transcript.leader_id,
        "cost_table": {
            str(pid): cost for pid, cost in sorted(transcript.cost_table.costs.items())
        },
        "decoded": sorted(transcript.result.decoded),
        "download_cost_actual": transcript.download_cost_actual,
        "messages": len(transcript.messages),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"leader: party {transcript.leader_id}")
        print(f"decoded intersection: {sorted(transcript.result.decoded)}")
        print(f"download cost: {transcript.download_cost_actual}")
        if args.out:
            print(f"transcript written to {args.out}")
    return 0


def _cmd_cost(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    table, chosen = setup.costs, setup.leader.party_id
    if args.json:
        print(
            json.dumps(
                {
                    "cost_table": {str(p): c for p, c in sorted(table.costs.items())},
                    "leader": chosen,
                },
                sort_keys=True,
            )
        )
    else:
        for pid, cost in sorted(table.costs.items()):
            note = " (infeasible)" if cost is None else ""
            mark = " <- leader" if pid == chosen else ""
            print(f"party {pid}: {cost}{note}{mark}")
    return 0


def _leader_mi_candidates(leader_set, universe_size: int):
    size = len(leader_set)
    for combo in itertools.combinations(range(1, universe_size + 1), size):
        candidate = frozenset(combo)
        if candidate != leader_set:
            return [frozenset(leader_set), candidate]
    raise ConfigError(
        "leader-privacy check needs a second candidate set of the same size"
    )


def _audit_checks(config: SessionConfig, args) -> List[Dict]:
    universe = Universe(config.universe_size)
    setup = prepare_session(config.parties, universe, config.leader_override)
    instance = audit_mod.AuditInstance(
        profiles=config.parties,
        universe=universe,
        leader_override=setup.leader.party_id,
    )
    bound = args.bound
    wanted = args.check
    results: List[Dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append({"check": name, "passed": passed, "detail": detail})

    def guarded(name: str, runner) -> None:
        try:
            runner()
        except BoundExceededError as exc:
            record(name, False, f"not run: {exc}")

    def _reliability() -> None:
        report = audit_mod.check_reliability(instance, bound=bound, seed=config.seed)
        record(
            "reliability",
            report.passed,
            f"{report.cases} realizations, randomness space {report.space}, "
            f"exhaustive={report.exhaustive_randomness}",
        )

    def _lemma1() -> None:
        report = audit_mod.check_db1_uniformity(instance, seed=config.seed)
        record("lemma1", report.passed, report.detail or "database-1 answers uniform")

    def _lemma2() -> None:
        report = audit_mod.check_z_uniformity(instance, seed=config.seed)
        record("lemma2", report.passed, report.detail or "subtraction statistics uniform")

    def _lemma3() -> None:
        report = audit_mod.check_indicator_privacy(instance, seed=config.seed)
        record("lemma3", report.passed, report.detail or "indicator tables exact")

    def _leader_mi() -> None:
        candidates = _leader_mi_candidates(setup.leader.data_set, config.universe_size)
        plan = make_partition_plan(setup.leader, setup.clients)
        worst = 0.0
        all_zero = True
        for client in setup.clients:
            for db in range(1, plan.used_databases[client.party_id] + 1):
                result = audit_mod.leader_privacy_mi(
                    clients=list(setup.clients),
                    leader_id=setup.leader.party_id,
                    leader_databases=setup.leader.num_databases,
                    candidate_sets=candidates,
                    universe=universe,
                    client_id=client.party_id,
                    database=db,
                    bound=bound,
                )
                all_zero = all_zero and result.is_zero
                worst = max(worst, result.bits)
        record("leader-mi", all_zero, f"max leakage {worst} bits over every database view")

    def _client_mi() -> None:
        report = audit_mod.client_privacy_mi(
            leader=setup.leader,
            client_shapes=[(c.party_id, c.num_databases) for c in setup.clients],
            universe=universe,
            bound=bound,
        )
        record(
            "client-mi",
            report.is_zero,
            f"max leakage {report.bits_max} bits across intersection outcomes",
        )

    runners = {
        "reliability": _reliability,
        "lemma1": _lemma1,
        "lemma2": _lemma2,
        "lemma3": _lemma3,
        "leader-mi": _leader_mi,
        "client-mi": _client_mi,
    }
    for name, runner in runners.items():
        if wanted not in (name, "all"):
            continue
        if setup.leader.data_set:
            guarded(name, runner)
        else:
            # No query or answer is exchanged, so every claim holds vacuously.
            record(name, True, "empty leader set; nothing is exchanged")
    return results


def _cmd_audit(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    results = _audit_checks(config, args)
    if args.json:
        print(json.dumps({"checks": results}, sort_keys=True))
    else:
        for item in results:
            status = "PASS" if item["passed"] else "FAIL"
            print(f"[{status}] {item['check']}: {item['detail']}")
    return 0 if all(item["passed"] for item in results) else 1


def _cmd_demo(args) -> int:
    report = run_demo(args.name, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report.passed else 1


def _cmd_serve_db(args) -> int:
    from .net import DatabaseEndpoint

    config = load_config(args.config)
    host, port = args.host, args.port
    if port is None:
        if (args.party, args.db) in config.addresses:
            host, port = config.addresses[(args.party, args.db)]
        else:
            raise ConfigError(
                "serve-db needs --port or an addresses entry in the config"
            )
    endpoint = DatabaseEndpoint(config, args.party, args.db, host=host, port=port)
    endpoint.start()
    if config.addresses:
        endpoint.begin_sharing(dict(config.addresses))
    print(f"serving database ({args.party},{args.db}) on {endpoint.address[0]}:{endpoint.address[1]}")
    try:
        while True:
            import time

            time.sleep(3600)
    except KeyboardInterrupt:
        endpoint.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppsi",
        description="Multi-party private set intersection over replicated databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a session from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--leader", type=int)
    run_p.add_argument("--transport", choices=("mem", "net"))
    run_p.add_argument("--out", help="write the transcript file here")
    run_p.add_argument("--json", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    cost_p = sub.add_parser("cost", help="print the download-cost table")
    cost_p.add_argument("--config", required=True)
    cost_p.add_argument("--leader", type=int)
    cost_p.add_argument("--json", action="store_true")
    cost_p.set_defaults(func=_cmd_cost)

    audit_p = sub.add_parser("audit", help="exact enumeration checks")
    audit_p.add_argument("--config", required=True)
    audit_p.add_argument(
        "--check",
        default="all",
        choices=(
            "reliability",
            "lemma1",
            "lemma2",
            "lemma3",
            "leader-mi",
            "client-mi",
            "all",
        ),
    )
    audit_p.add_argument("--bound", type=int, default=audit_mod.DEFAULT_BOUND)
    audit_p.add_argument("--seed", type=int)
    audit_p.add_argument("--leader", type=int)
    audit_p.add_argument("--json", action="store_true")
    audit_p.set_defaults(func=_cmd_audit)

    demo_p = sub.add_parser("demo", help="run a built-in fixture")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--seed", type=int)
    demo_p.add_argument("--json", action="store_true")
    demo_p.set_defaults(func=_cmd_demo)

    serve_p = sub.add_parser("serve-db", help="serve one database endpoint")
    serve_p.add_argument("--config", required=True)
    serve_p.add_argument("--party", type=int, required=True)
    serve_p.add_argument("--db", type=int, required=True)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int)
    serve_p.set_defaults(func=_cmd_serve_db)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MppsiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
