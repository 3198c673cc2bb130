"""Command-line interface.

Subcommands:

* run: execute a session from a config file and print its report
  (optionally writing the transcript file);
* cost: print the per-candidate download-cost table and the elected leader;
* audit: run the exact enumeration checks against the configured instance;
* demo: run a built-in fixture and print its report with a check of each
  expected number;
* serve-db: run one database endpoint for the networked transport.

run and demo print one report, SessionTranscript.report plus any checks:
with --json one sorted-key JSON line, else text whose cost table has the
lines cost prints.

Exit codes: 0 success, 1 check failure or internal error, 2 config error,
3 infeasible instance, 4 transport error, 5 protocol violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from . import audit as audit_mod
from .config import SessionConfig, load_config
from .demo import DEMOS, run_demo
from .errors import BoundExceededError, ConfigError, MppsiError
from .leader import make_partition_plan
from .session import deal, run_session


def _apply_overrides(config: SessionConfig, args) -> SessionConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "leader", None) is not None:
        config = replace(config, leader_override=args.leader)
    transport = getattr(args, "transport", None)
    if transport is not None:
        config = replace(config, transport={"mem": "memory", "net": "net"}[transport])
    return config


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write transcript {path}: {exc}")


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if not args.out:
        transcript = run_session(config)
    else:
        # Opened before the session runs, so an unwritable path costs no
        # session; removed again when the session or the write fails.
        try:
            handle = open(args.out, "wb")
        except OSError as exc:
            raise _unwritable(args.out, exc) from exc
        try:
            with handle:
                transcript = run_session(config)
                try:
                    handle.write(transcript.serialize())
                except OSError as exc:
                    raise _unwritable(args.out, exc) from exc
        except BaseException:
            os.remove(args.out)
            raise
    _print_report(transcript.report(), args.json)
    if args.out and not args.json:
        print(f"transcript written to {args.out}")
    return 0


def _cmd_cost(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    setup = config.prepared[0]
    chosen = setup.leader.party_id
    table = {str(pid): cost for pid, cost in sorted(setup.costs.costs.items())}
    if args.json:
        print(json.dumps({"cost_table": table, "leader": chosen}, sort_keys=True))
    else:
        print("\n".join(_cost_lines(table, chosen)))
    return 0


def _cost_lines(table: Dict[str, Optional[int]], leader: int) -> List[str]:
    """One line per party of a cost table, marking the infeasible and the leader."""
    return [
        f"party {pid}: {cost}"
        + (" (infeasible)" if cost is None else "")
        + (" <- leader" if pid == str(leader) else "")
        for pid, cost in table.items()
    ]


def _print_report(report: Dict, as_json: bool) -> None:
    """Print a session report, and a demo's name and checks if it has them."""
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    if "name" in report:
        print(f"demo {report['name']}: {report['title']}")
    print(f"leader: party {report['leader']}")
    print("cost table:")
    for line in _cost_lines(report["cost_table"], report["leader"]):
        print(f"  {line}")
    print("messages: " + ", ".join(f"{p} {n}" for p, n in report["messages"].items()))
    print(f"decoded intersection: {report['decoded']}")
    print(f"download cost: {report['download_cost_actual']}")
    for check in report.get("checks", ()):
        status = "ok" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")


def _leader_mi_candidates(leader_set, universe_size: int) -> Optional[List[frozenset]]:
    """The leader's set and another of its size, or None when there is none."""
    size = len(leader_set)
    for combo in itertools.combinations(range(1, universe_size + 1), size):
        candidate = frozenset(combo)
        if candidate != leader_set:
            return [frozenset(leader_set), candidate]
    return None


def _audit_checks(config: SessionConfig, args) -> List[Dict]:
    universe = config.universe
    setup = config.prepared[0]
    instance = audit_mod.AuditInstance(
        profiles=config.parties,
        universe=universe,
        leader_override=setup.leader.party_id,
    )
    bound = args.bound

    # Each check returns (passed, detail).
    def reliability() -> Tuple[bool, str]:
        report = audit_mod.check_reliability(instance, bound=bound, seed=config.seed)
        return report.passed, (
            f"{report.cases} realizations, randomness space {report.space}, "
            f"exhaustive={report.exhaustive_randomness}"
        )

    def lemma(check, holds: str) -> Tuple[bool, str]:
        report = check(instance, seed=config.seed)
        return report.passed, report.detail or holds

    def leader_mi() -> Tuple[bool, str]:
        candidates = _leader_mi_candidates(setup.leader.data_set, config.universe_size)
        if candidates is None:
            return True, "the leader holds the whole universe; its public set size reveals it"
        plan = make_partition_plan(setup.leader, setup.clients)
        worst = 0.0
        all_zero = True
        for client in setup.clients:
            for db in range(1, plan.shape.used_databases[client.party_id] + 1):
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
        return all_zero, f"max leakage {worst} bits over every database view"

    def client_mi() -> Tuple[bool, str]:
        report = audit_mod.client_privacy_mi(
            leader=setup.leader,
            client_shapes=[(c.party_id, c.num_databases) for c in setup.clients],
            universe=universe,
            bound=bound,
        )
        return report.is_zero, f"max leakage {report.bits_max} bits across intersection outcomes"

    checks = {
        "reliability": reliability,
        "lemma1": lambda: lemma(audit_mod.check_db1_uniformity, "database-1 answers uniform"),
        "lemma2": lambda: lemma(audit_mod.check_z_uniformity, "subtraction statistics uniform"),
        "lemma3": lambda: lemma(audit_mod.check_indicator_privacy, "indicator tables exact"),
        "leader-mi": leader_mi,
        "client-mi": client_mi,
    }
    results: List[Dict] = []
    for name, check in checks.items():
        if args.check not in (name, "all"):
            continue
        if not setup.leader.data_set:
            # No query or answer is exchanged, so every claim holds vacuously.
            passed, detail = True, "empty leader set; nothing is exchanged"
        else:
            try:
                passed, detail = check()
            except BoundExceededError as exc:
                passed, detail = False, f"not run: {exc}"
        results.append({"check": name, "passed": passed, "detail": detail})
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
    _print_report(report, args.json)
    return 0 if report["passed"] else 1


def _cmd_serve_db(args) -> int:
    from .net import DatabaseEndpoint

    config = load_config(args.config)
    party = next((p for p in config.parties if p.party_id == args.party), None)
    if party is None:
        raise ConfigError(f"serve-db names unknown party {args.party}")
    if not 1 <= args.db <= party.num_databases:
        raise ConfigError(f"party {args.party} has no database {args.db}")
    setup, _ = config.prepared
    if args.party == setup.leader.party_id:
        raise ConfigError("the leader party does not serve database endpoints")
    if not setup.leader.data_set:
        raise ConfigError("the leader set is empty: no database gets a query")
    host, port = args.host, args.port
    if port is None:
        if (args.party, args.db) in config.addresses:
            host, port = config.addresses[(args.party, args.db)]
        else:
            raise ConfigError(
                "serve-db needs --port or an addresses entry in the config"
            )

    def report(cause: Exception) -> None:
        print(f"database ({args.party},{args.db}) closed a connection: {cause}", file=sys.stderr)

    # Its own record of the config's dealing; it needs no peer's address.
    endpoint = DatabaseEndpoint(
        deal(config)[args.party, args.db], host=host, port=port, on_error=report
    )
    endpoint.start()
    print(f"serving database ({args.party},{args.db}) on {endpoint.address[0]}:{endpoint.address[1]}")
    try:
        while True:
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
