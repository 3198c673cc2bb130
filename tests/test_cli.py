"""CLI subcommands and exit codes."""

import dataclasses
import json
import re
import socket
import sys
from pathlib import Path

import pytest

from mppsi.cli import main
from mppsi.config import load_config
from mppsi.database import DatabaseRecord, DatabaseState
from mppsi.demo import DEMOS
from mppsi.session import load_transcript, run_memory_session
from mppsi.wire import Message, encode_msg

FIXTURE = {
    "universe_size": 4,
    "parties": [
        {"id": 1, "databases": 3, "set": [1, 2]},
        {"id": 2, "databases": 3, "set": [1, 3]},
        {"id": 3, "databases": 3, "set": [1, 4]},
    ],
    "leader": 3,
    "seed": 7,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(FIXTURE))
    return str(path)


class TestRun:
    def test_memory_run_json(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == [1]
        assert payload["download_cost_actual"] == 6
        assert payload["leader"] == 3

    def test_run_writes_transcript(self, config_path, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        raw = json.loads(out.read_bytes())
        assert raw["result"]["decoded"] == [1]
        assert len(raw["messages"]) == 12
        assert load_transcript(out.read_bytes()) == run_memory_session(load_config(config_path))

    def test_json_is_the_report_of_the_written_transcript(self, config_path, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        assert main(["run", "--config", config_path, "--json", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == load_transcript(out.read_bytes()).report()
        assert payload["messages"] == {"query": 6, "answer": 6}

    def test_text_prints_the_cost_table_and_message_counts(self, config_path, capsys):
        assert main(["run", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "  party 3: 6 <- leader\n" in out
        assert "messages: query 6, answer 6\n" in out

    def test_empty_leader_set_reports_nothing_exchanged(self, tmp_path, capsys):
        path = tmp_path / "empty-leader.json"
        path.write_text(json.dumps(EMPTY_LEADER))
        assert main(["run", "--config", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == []
        assert payload["download_cost_actual"] == 0
        assert payload["messages"] == {"query": 0, "answer": 0}

    def test_networked_run_writes_the_memory_transcript(self, config_path, tmp_path):
        memory, over_tcp = tmp_path / "memory.json", tmp_path / "net.json"
        assert main(["run", "--config", config_path, "--out", str(memory)]) == 0
        assert main(
            ["run", "--config", config_path, "--transport", "net", "--out", str(over_tcp)]
        ) == 0
        assert over_tcp.read_bytes() == memory.read_bytes()

    def test_networked_run(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--transport", "net", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == [1]

    def test_seed_override_changes_transcript_not_result(self, config_path, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["run", "--config", config_path, "--out", str(first)]) == 0
        assert main(["run", "--config", config_path, "--seed", "99", "--out", str(second)]) == 0
        a = json.loads(first.read_bytes())
        b = json.loads(second.read_bytes())
        assert a["messages"] != b["messages"]
        assert a["result"]["decoded"] == b["result"]["decoded"]


class TestCost:
    def test_cost_table_output(self, config_path, capsys):
        assert main(["cost", "--config", config_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost_table"] == {"1": 6, "2": 6, "3": 6}
        assert payload["leader"] == 3

    def test_cost_reads_only_the_public_parameters(self, tmp_path, capsys, monkeypatch):
        # Sets of other contents at the same sizes print the same bytes, and
        # cost derives no session id, which digests every set and the seed.
        import mppsi.protocol

        def refuse(config):
            raise AssertionError("cost derived a session id")

        monkeypatch.setattr(mppsi.protocol, "make_session_id", refuse)
        printed = []
        for sets in ([[1, 2], [1, 3], [1, 4]], [[3, 4], [2, 4], [2, 3]]):
            parties = [dict(party, set=own) for party, own in zip(FIXTURE["parties"], sets)]
            path = tmp_path / "session.json"
            path.write_text(json.dumps(dict(FIXTURE, parties=parties)))
            assert main(["cost", "--config", str(path), "--json"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert json.loads(printed[0]) == {"cost_table": {"1": 6, "2": 6, "3": 6}, "leader": 3}

    def test_unleadable_override_fails_as_run_does(self, tmp_path, capsys):
        # Party 1 cannot lead: party 2 has a single database.
        config = dict(FIXTURE, leader=1)
        config["parties"] = [
            {"id": 1, "databases": 3, "set": [1, 2]},
            {"id": 2, "databases": 1, "set": [1, 3]},
            {"id": 3, "databases": 3, "set": [1, 4]},
        ]
        path = tmp_path / "unleadable.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 3
        run_error = capsys.readouterr().err
        assert "cannot lead" in run_error
        assert main(["cost", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", run_error)


class TestDemo:
    @pytest.mark.parametrize("name", ["sec4", "sec7_1", "sec7_2"])
    def test_demo_passes(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_demo_json(self, capsys):
        assert main(["demo", "sec7_2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == [1, 4]
        assert payload["download_cost_actual"] == 15
        assert payload["cost_table"]["2"] == 14
        assert payload["passed"] is True

    def test_demo_json_holds_the_run_report(self, capsys):
        assert main(["demo", "sec7_2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = run_memory_session(DEMOS["sec7_2"].config).report()
        assert payload.keys() == {*report, "name", "title", "checks", "passed"}
        assert {key: payload[key] for key in report} == report
        assert [check["name"] for check in payload["checks"]] == list(DEMOS["sec7_2"].expected)

    def test_wrong_expectation_fails(self, monkeypatch, capsys):
        fixture = DEMOS["sec4"]
        wrong = dataclasses.replace(fixture, expected=dict(fixture.expected, decoded=[2]))
        monkeypatch.setitem(DEMOS, "sec4", wrong)
        assert main(["demo", "sec4"]) == 1
        assert "[FAIL] decoded: expected [2], got [1]\n" in capsys.readouterr().out
        assert main(["demo", "sec4", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert [check["passed"] for check in payload["checks"]] == [False, True, True]


AUDIT_SMALL = str(Path(__file__).resolve().parent.parent / "configs" / "audit-small.json")
EMPTY_LEADER = {
    "universe_size": 3,
    "parties": [
        {"id": 1, "databases": 2, "set": []},
        {"id": 2, "databases": 2, "set": [1, 2]},
        {"id": 3, "databases": 2, "set": [1]},
    ],
    "seed": 1,
}
VACUOUS = "empty leader set; nothing is exchanged"
CHECK_NAMES = ("reliability", "lemma1", "lemma2", "lemma3", "leader-mi", "client-mi")

# Config (None: the FIXTURE config) and extra arguments -> the pinned
# (check, passed, detail) of every reported check, in order.
PINNED_AUDITS = {
    "audit-small": (AUDIT_SMALL, [], [
        ("reliability", True, "486 realizations, randomness space 54, exhaustive=True"),
        ("lemma1", True, "database-1 answers uniform"),
        ("lemma2", True, "subtraction statistics uniform"),
        ("lemma3", True, "indicator tables exact"),
        ("leader-mi", True, "max leakage 0.0 bits over every database view"),
        ("client-mi", True, "max leakage 0.0 bits across intersection outcomes"),
    ]),
    "empty-leader": (EMPTY_LEADER, [], [(name, True, VACUOUS) for name in CHECK_NAMES]),
    "client-mi-bound": (None, ["--check", "client-mi", "--bound", "100"], [
        ("client-mi", False,
         "not run: randomness space has 162 outcomes, above the bound 100"),
    ]),
}


class TestAudit:
    @pytest.mark.parametrize("name", list(PINNED_AUDITS))
    def test_audit_report_is_pinned(self, name, config_path, tmp_path, capsys):
        config, extra, pinned = PINNED_AUDITS[name]
        if config is None:
            config = config_path
        elif isinstance(config, dict):
            path = tmp_path / "audit.json"
            path.write_text(json.dumps(config))
            config = str(path)
        code = main(["audit", "--config", config, "--json", *extra])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["passed"], c["detail"]) for c in checks] == pinned
        assert code == (0 if all(passed for _, passed, _ in pinned) else 1)

    def test_leader_holding_the_whole_universe(self, tmp_path, capsys):
        # Only one set has the leader's size, so its public cardinality
        # already gives it away: leader-mi passes with nothing to hide, and
        # every other check reports as it does when run alone.
        config = {
            "universe_size": 2,
            "parties": [
                {"id": 1, "databases": 3, "set": [1, 2]},
                {"id": 2, "databases": 3, "set": [1]},
                {"id": 3, "databases": 3, "set": [1, 2]},
            ],
            "leader": 1,
            "seed": 7,
        }
        path = tmp_path / "whole-universe.json"
        path.write_text(json.dumps(config))
        code = main(["audit", "--config", str(path), "--json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [item["check"] for item in checks] == list(CHECK_NAMES)
        assert code == (0 if all(item["passed"] for item in checks) else 1)
        for item in checks:
            alone = main(["audit", "--config", str(path), "--json", "--check", item["check"]])
            assert json.loads(capsys.readouterr().out)["checks"] == [item]
            assert alone == (0 if item["passed"] else 1)
        (leader_mi,) = [item for item in checks if item["check"] == "leader-mi"]
        assert leader_mi["passed"]
        assert "whole universe" in leader_mi["detail"]

    def test_audit_bound_exceeded_reported_per_check(self, config_path, capsys):
        code = main(["audit", "--config", config_path, "--check", "client-mi", "--bound", "100"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not run" in out


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file_is_2(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.json"]) == 2

    def test_unwritable_transcript_is_2(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mppsi.cli.run_session", lambda config: pytest.fail("session ran"))
        out = tmp_path / "missing" / "t.json"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 2
        assert f"cannot write transcript {out}" in capsys.readouterr().err

    def test_universe_past_the_frame_limit_is_2_on_either_transport(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("mppsi.cli.run_session", lambda config: pytest.fail("session ran"))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(FIXTURE, universe_size=1_048_535)))
        for transport in ("mem", "net"):
            assert main(["run", "--config", str(path), "--transport", transport]) == 2
            assert "frame limit" in capsys.readouterr().err

    def test_failed_session_leaves_no_transcript(self, tmp_path, capsys):
        config = {
            "universe_size": 2,
            "parties": [
                {"id": 1, "databases": 1, "set": [1]},
                {"id": 2, "databases": 1, "set": [1]},
            ],
            "seed": 0,
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "t.json"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    def test_infeasible_is_3(self, tmp_path, capsys):
        config = {
            "universe_size": 2,
            "parties": [
                {"id": 1, "databases": 1, "set": [1]},
                {"id": 2, "databases": 1, "set": [1]},
            ],
            "seed": 0,
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 3

    def test_validation_error_is_2(self, tmp_path, capsys):
        config = {
            "universe_size": 2,
            "parties": [{"id": 1, "databases": 0, "set": []}],
            "seed": 0,
        }
        path = tmp_path / "zero-db.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 2

    def test_transport_error_is_4(self, tmp_path, capsys):
        import mppsi.net as net_mod

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        config = dict(FIXTURE)
        config["transport"] = "net"
        config["addresses"] = {
            f"{party['id']}:{db}": f"127.0.0.1:{port}"
            for party in FIXTURE["parties"]
            if party["id"] != 3
            for db in range(1, party["databases"] + 1)
        }
        path = tmp_path / "unreachable.json"
        path.write_text(json.dumps(config))
        old_retry = net_mod.CONNECT_RETRY_SECONDS
        net_mod.CONNECT_RETRY_SECONDS = 0.2
        try:
            assert main(["run", "--config", str(path)]) == 4
        finally:
            net_mod.CONNECT_RETRY_SECONDS = old_retry


class TestServeDb:
    # Both configs fail election, which serve-db runs before it deals and
    # before any socket opens.
    ONE_PARTY = {
        "universe_size": 4,
        "parties": [{"id": 1, "databases": 3, "set": [1, 2]}],
        "seed": 7,
    }
    # Party 1 cannot lead: party 2 has a single database.
    UNLEADABLE = {
        "universe_size": 4,
        "parties": [
            {"id": 1, "databases": 3, "set": [1, 2]},
            {"id": 2, "databases": 1, "set": [1, 3]},
            {"id": 3, "databases": 3, "set": [1, 4]},
        ],
        "leader": 1,
        "seed": 7,
    }

    @pytest.mark.parametrize("config", [ONE_PARTY, UNLEADABLE], ids=["one-party", "unleadable"])
    def test_infeasible_session_fails_as_run_does(self, config, tmp_path, capsys, monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        # An endpoint that did start serves until interrupted; end it at once.
        monkeypatch.setattr("time.sleep", interrupt)
        path = tmp_path / "session.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 3
        run_error = capsys.readouterr().err
        serve = ["serve-db", "--config", str(path), "--party", "1", "--db", "1", "--port", "0"]
        assert main(serve) == 3
        assert capsys.readouterr().err == run_error

    # FIXTURE: party 3 leads, and each party has three databases.
    REFUSED = {
        "unknown party": (FIXTURE, ["--party", "9", "--db", "1"], "serve-db names unknown party 9"),
        "database 0": (FIXTURE, ["--party", "1", "--db", "0"], "party 1 has no database 0"),
        "database 4": (FIXTURE, ["--party", "1", "--db", "4"], "party 1 has no database 4"),
        "the leader party": (
            FIXTURE, ["--party", "3", "--db", "1"], "the leader party does not serve"
        ),
        "an empty leader set": (
            dict(FIXTURE, parties=[*FIXTURE["parties"][:2], dict(FIXTURE["parties"][2], set=[])]),
            ["--party", "1", "--db", "1"],
            "the leader set is empty: no database gets a query",
        ),
        # Party 3 leads a set of two, so it queries three databases of each
        # client: party 1's fourth is idle.
        "an idle database": (
            dict(FIXTURE, parties=[
                dict(FIXTURE["parties"][0], databases=4), *FIXTURE["parties"][1:]
            ]),
            ["--party", "1", "--db", "4"],
            "database (1,4) is idle: it gets no query",
        ),
    }

    @pytest.mark.parametrize("refused", sorted(REFUSED))
    def test_a_database_it_cannot_serve_is_a_config_error(
        self, refused, tmp_path, capsys, monkeypatch
    ):
        def interrupt(seconds):
            raise KeyboardInterrupt

        # Should the endpoint start after all, end it at once.
        monkeypatch.setattr("time.sleep", interrupt)
        config, address, message = self.REFUSED[refused]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(config))
        assert main(["serve-db", "--config", str(path), *address, "--port", "0"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_each_closing_fault_is_printed_as_it_comes(self, config_path, capsys, monkeypatch):
        # FIXTURE: party 3 leads over a universe of 4.
        foreign = Message("query", "0" * 16, (3, 0), (1, 1), 1, None, bytes(4))

        def send_then_interrupt(seconds):
            host, port = capsys.readouterr().out.split(" on ")[1].strip().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(encode_msg(foreign))
                assert conn.recv(1) == b""
            raise KeyboardInterrupt

        monkeypatch.setattr("time.sleep", send_then_interrupt)
        serve = ["serve-db", "--config", config_path, "--party", "1", "--db", "1", "--port", "0"]
        assert main(serve) == 0
        assert re.fullmatch(
            r"database \(1,1\) closed a connection: "
            r"frame for session 0{16}, serving [0-9a-f]{16}\n",
            capsys.readouterr().err,
        )

    def test_a_serving_database_keeps_no_record(self, config_path, monkeypatch):
        # While it serves, serve-db holds its state, whose slots are spent as
        # they are answered, and no record from which to deal them again.
        held = []

        def look_then_interrupt(seconds):
            held.extend(sys._getframe(1).f_locals.values())
            raise KeyboardInterrupt

        monkeypatch.setattr("time.sleep", look_then_interrupt)
        serve = ["serve-db", "--config", config_path, "--party", "1", "--db", "1", "--port", "0"]
        assert main(serve) == 0
        assert any(isinstance(value, DatabaseState) for value in held)
        assert not any(isinstance(value, DatabaseRecord) for value in held)

    def test_port_in_use_is_a_transport_error(self, config_path, capsys, monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        # Should the endpoint start after all, end it at once.
        monkeypatch.setattr("time.sleep", interrupt)
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = holder.getsockname()[1]
            serve = ["serve-db", "--config", config_path, "--party", "1", "--db", "1"]
            assert main([*serve, "--port", str(port)]) == 4
        assert f"cannot listen on 127.0.0.1:{port}" in capsys.readouterr().err


def parties_config(count):
    return {
        "universe_size": 3,
        "parties": [{"id": pid, "databases": 2, "set": [1, 2]} for pid in range(1, count + 1)],
        "seed": 5,
    }


class TestFieldLimit:
    """A message carries each residue in one byte, so at most 251 parties (L <= 251)."""

    def test_largest_field_runs(self, tmp_path, capsys):
        path = tmp_path / "parties-251.json"
        path.write_text(json.dumps(parties_config(251)))
        assert main(["run", "--config", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["decoded"] == [1, 2]

    @pytest.mark.parametrize(
        "command",
        [["run"], ["cost"], ["serve-db", "--party", "2", "--db", "1", "--port", "0"]],
        ids=["run", "cost", "serve-db"],
    )
    def test_more_parties_is_2(self, command, tmp_path, capsys, monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        # Should an endpoint start after all, end it at once.
        monkeypatch.setattr("time.sleep", interrupt)
        path = tmp_path / "parties-252.json"
        path.write_text(json.dumps(parties_config(252)))
        assert main([*command, "--config", str(path)]) == 2
        assert "at most 251 parties" in capsys.readouterr().err
