"""Networked transport: one TCP endpoint per client database.

Each database is an independently addressable endpoint; a party is only an
administrative grouping. Endpoints derive everything they are entitled to
from the shared configuration: the public database counts and set
cardinalities, the chunk geometry, their own party's data set, and their own
labeled randomness draws. The randomness phase runs directly between client
endpoints (individual-value shares to the correlating client's databases,
the global multiplier broadcast from database 1 of the lowest client); the
leader connects to each used database once, sends its queries, and reads the
answers off the same connection, tolerating any interleaving across
databases.

Endpoints are served by a serve loop: one thread multiplexing their listening
sockets and accepted connections. The endpoints of spawn_endpoints share one
loop, so their work never competes for the interpreter lock; an endpoint
started alone gets a loop of its own. Queries that arrive before an
endpoint's randomness wait on their connection until it is installed, and
the answers to the queries of one read go back in one write. The leader
encodes its queries before the randomness phase starts and runs its whole
query round on the calling thread. A session therefore hands control between
threads a few times per phase rather than a few times per message.

Transcripts are assembled by the session runner as an omniscient evidence
object: the randomness-phase traffic is reproduced from (config, seed) --
the endpoints' labeled draws make it identical to what was actually sent,
which the tests verify against the endpoints' own logs -- while queries and
answers are logged as observed. For equal (config, seed) the result is the
same transcript the in-memory transport produces.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import SessionConfig
from .errors import ConfigError, ProtocolViolationError, TransportError
from .field import select_field_size
from .leader import QuerySpec, cost_table, decode, generate_queries, make_partition_plan, make_plan_shape
from .model import PartyProfile
from .protocol import prepare_session, run_protocol
from .randomness import (
    RandomnessBundle,
    build_bundle,
    correlating_client,
    free_clients,
    gen_global,
    gen_local,
)
from .seeding import draw_value
from .session import (
    SessionTranscript,
    answers_to_wire,
    queries_to_wire,
    session_id_for,
    shares_to_wire,
    transcript_from_run,
)
from .wire import Message, decode_msg, encode_msg, split_frames

CONNECT_RETRY_SECONDS = 5.0
READY_TIMEOUT_SECONDS = 15.0
SOCKET_TIMEOUT_SECONDS = 15.0
RECV_BYTES = 1 << 16


@dataclass(frozen=True)
class _WireAnswer:
    """Adapter giving received answer messages the shape decode expects."""

    client_id: int
    database: int
    partition: int
    target_pos: Optional[int]
    value: int


@dataclass
class _Connection:
    """An endpoint's state for one accepted connection."""

    buffer: bytearray = field(default_factory=bytearray)
    waiting: List[Message] = field(default_factory=list)  # queries not yet answered
    deadline: float = 0.0  # when the first waiting query gives up on randomness


class DatabaseEndpoint:
    """One client database serving a single session over TCP."""

    def __init__(
        self,
        config: SessionConfig,
        party_id: int,
        database: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.config = config
        self.party_id = party_id
        self.database = database
        self.session_id = session_id_for(config)
        self.sent_log: List[Message] = []
        self.received_log: List[Message] = []
        self._lock = threading.Lock()
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._closed = threading.Event()  # set once the loop dropped our sockets
        self._threads: List[threading.Thread] = []
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[_ServeLoop] = None
        self._host = host
        self._port = port

        profiles = config.parties
        by_id = {p.party_id: p for p in profiles}
        if party_id not in by_id:
            raise ConfigError(f"endpoint names unknown party {party_id}")
        self.profile: PartyProfile = by_id[party_id]
        if not 1 <= database <= self.profile.num_databases:
            raise ConfigError(
                f"party {party_id} has no database {database}"
            )
        self.field = select_field_size(len(profiles))
        table = cost_table(profiles)
        self.leader_id = (
            config.leader_override if config.leader_override is not None else table.best()
        )
        if party_id == self.leader_id:
            raise ConfigError("the leader party does not serve database endpoints")
        clients = sorted(
            (p for p in profiles if p.party_id != self.leader_id),
            key=lambda p: p.party_id,
        )
        self.client_profiles = clients
        self.client_ids = [p.party_id for p in clients]
        # Public quantity: set cardinalities are known to everyone.
        self.set_size = len(by_id[self.leader_id].data_set)
        self.shape = (
            make_plan_shape(self.set_size, clients) if self.set_size > 0 else None
        )
        self.correlator = correlating_client(self.client_ids)
        self.free_ids = free_clients(self.client_ids)
        self.c_origin = (min(self.client_ids), 1)

        seed = config.seed
        self._c: Optional[int] = None
        self._s: List[int] = []
        self._t_slots: Dict[int, int] = {}
        self._pending: Dict[int, Dict[int, int]] = {}
        self._own_positions: List[int] = []

        if self.shape is not None:
            eta = self.shape.eta[party_id]
            self._s = gen_local(party_id, eta, self.field, seed)
            self._own_positions = self.shape.positions_of_database(party_id, database)
            if party_id != self.correlator:
                for position in self._own_positions:
                    partition, db = self.shape.position_location(party_id, position)
                    assert db == database
                    self._t_slots[partition] = draw_value(
                        seed, self.field.modulus, "t", party_id, db, partition
                    )
            else:
                self._pending = {k: {} for k in self._own_positions}
                if not self.free_ids:
                    self._complete_correlation()
        if (party_id, database) == self.c_origin:
            self._c = gen_global(self.field, seed)
        self._check_ready()

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: Optional[_ServeLoop] = None) -> None:
        """Listen, served by loop, or by a loop of its own when none is given.

        A shared loop serves nothing until its owner starts it.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(16)
        sock.setblocking(False)
        self._sock = sock
        self._loop = loop if loop is not None else _ServeLoop()
        self._loop.add(self)
        self._threads.append(self._loop.thread)
        if loop is None:
            self._loop.start()

    @property
    def address(self) -> Tuple[str, int]:
        if self._sock is None:
            raise TransportError("endpoint not started")
        host, port = self._sock.getsockname()[:2]
        return host, port

    def stop(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                # Makes the listening socket readable for good, so the serve
                # loop wakes at once, sees the stop flag and drops our sockets.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if self._loop.thread.is_alive():
                self._closed.wait(timeout=2.0)
        for thread in self._threads:
            if thread is self._loop.thread and self._loop.endpoints:
                continue  # the loop still serves other endpoints
            if thread.ident is not None:
                thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()

    def begin_sharing(self, addresses: Dict[Tuple[int, int], Tuple[str, int]]) -> None:
        """Send this database's outgoing randomness-phase messages."""
        outgoing: Dict[Tuple[int, int], List[Message]] = {}
        if self.shape is not None and self.party_id in self.free_ids:
            for position in self._own_positions:
                partition, _ = self.shape.position_location(self.party_id, position)
                _, dest_db = self.shape.position_location(self.correlator, position)
                dest = (self.correlator, dest_db)
                outgoing.setdefault(dest, []).append(
                    Message(
                        type="t_share",
                        session_id=self.session_id,
                        phase="randomness",
                        origin=(self.party_id, self.database),
                        dest=dest,
                        partition=None,
                        target=position,
                        values=(self._t_slots[partition],),
                    )
                )
        if (self.party_id, self.database) == self.c_origin:
            assert self._c is not None
            for client in self.client_profiles:
                for db in range(1, client.num_databases + 1):
                    dest = (client.party_id, db)
                    if dest == self.c_origin:
                        continue
                    outgoing.setdefault(dest, []).append(
                        Message(
                            type="c_share",
                            session_id=self.session_id,
                            phase="randomness",
                            origin=self.c_origin,
                            dest=dest,
                            partition=None,
                            target=None,
                            values=(self._c,),
                        )
                    )
        if not outgoing:
            return
        thread = threading.Thread(
            target=self._send_shares, args=(outgoing, addresses), daemon=True
        )
        thread.start()
        self._threads.append(thread)

    # -- randomness state --------------------------------------------------

    def _complete_correlation(self) -> None:
        # Sum of the individual values across clients must be L - (M - 1)
        # at every position; this database fills in the remainder.
        modulus = self.field.modulus
        num_parties = len(self.client_ids) + 1
        target = (modulus - (num_parties - 1)) % modulus
        for position in self._own_positions:
            received = self._pending.get(position, {})
            if len(received) != len(self.free_ids):
                return
        for position in self._own_positions:
            total = sum(self._pending[position].values()) % modulus
            partition, _ = self.shape.position_location(self.party_id, position)
            self._t_slots[partition] = (target - total) % modulus

    def _check_ready(self) -> None:
        if self.shape is None:
            self._ready.set()
            return
        if self._c is None:
            return
        if self.database >= 2 and len(self._t_slots) < len(self._own_positions):
            return
        self._ready.set()

    def _install(self, msg: Message) -> None:
        with self._lock:
            self.received_log.append(msg)
            if msg.type == "c_share":
                value = msg.values[0]
                if not 0 < value < self.field.modulus:
                    raise ProtocolViolationError(f"global multiplier {value} out of range")
                self._c = value
            elif msg.type == "t_share":
                if self.party_id != self.correlator:
                    raise ProtocolViolationError(
                        "individual-randomness share sent to a non-correlating client"
                    )
                position = msg.target
                if position not in self._pending:
                    raise ProtocolViolationError(
                        f"share for position {position} not owned by this database"
                    )
                sender = msg.origin[0]
                if sender not in self.free_ids or sender in self._pending[position]:
                    raise ProtocolViolationError(
                        f"unexpected or duplicate share from party {sender}"
                    )
                self._pending[position][sender] = msg.values[0] % self.field.modulus
                self._complete_correlation()
            else:
                raise ProtocolViolationError(f"unexpected message type {msg.type!r}")
            self._check_ready()

    def _partial_bundle(self) -> RandomnessBundle:
        bundle = RandomnessBundle()
        bundle.local[self.party_id] = list(self._s)
        if self.shape is not None:
            bundle.individual[(self.party_id, 1)] = {
                ell: 0 for ell in range(1, self.shape.eta[self.party_id] + 1)
            }
        if self.database >= 2:
            bundle.individual[(self.party_id, self.database)] = dict(self._t_slots)
        bundle.c = self._c
        return bundle

    # -- socket plumbing ----------------------------------------------------

    def _read_frames(self, conn: socket.socket, state: _Connection) -> None:
        chunk = conn.recv(RECV_BYTES)
        if not chunk:
            raise TransportError("peer closed the connection")
        state.buffer += chunk
        for frame in split_frames(state.buffer):
            msg = decode_msg(frame)
            if msg.session_id != self.session_id:
                raise ProtocolViolationError(
                    f"frame for session {msg.session_id}, serving {self.session_id}"
                )
            if msg.dest != (self.party_id, self.database):
                raise ProtocolViolationError(
                    f"frame for {msg.dest} delivered to "
                    f"({self.party_id},{self.database})"
                )
            if msg.type in ("t_share", "c_share"):
                self._install(msg)
            elif msg.type == "query":
                self._check_query(msg)
                if not state.waiting:
                    state.deadline = time.monotonic() + READY_TIMEOUT_SECONDS
                state.waiting.append(msg)
            else:
                raise ProtocolViolationError(f"unexpected {msg.type!r} frame")

    def _check_query(self, msg: Message) -> None:
        if self.shape is None:
            raise ProtocolViolationError("query received for an empty leader set")
        if len(msg.values) != self.config.universe_size:
            raise ProtocolViolationError(
                f"query vector length {len(msg.values)} != universe {self.config.universe_size}"
            )
        if any(v >= self.field.modulus for v in msg.values):
            raise ProtocolViolationError("query value out of field range")
        with self._lock:
            self.received_log.append(msg)

    def _answer_waiting(self, conn: socket.socket, state: _Connection) -> None:
        """Answer every waiting query of a connection in one write, once ready."""
        from .client import answer_all

        if not self._ready.is_set():
            if time.monotonic() >= state.deadline:
                raise TransportError("randomness was not installed in time")
            return
        specs = [
            QuerySpec(
                client_id=self.party_id,
                database=self.database,
                partition=msg.partition,
                target_pos=msg.target,
                target_element=None,
                vector=msg.values,
            )
            for msg in state.waiting
        ]
        state.waiting = []
        with self._lock:
            bundle = self._partial_bundle()
        answers = answer_all(
            self.profile,
            self.database,
            specs,
            self.config.universe,
            bundle,
            self.field,
        )
        replies = answers_to_wire(self.leader_id, answers, self.session_id)
        # A blocking write on the loop thread: it holds up every endpoint of
        # the loop until the leader, which reads answers as they arrive,
        # takes them (or SOCKET_TIMEOUT_SECONDS passes).
        conn.sendall(b"".join(encode_msg(reply) for reply in replies))
        with self._lock:
            self.sent_log.extend(replies)

    def _send_shares(
        self,
        outgoing: Dict[Tuple[int, int], List[Message]],
        addresses: Dict[Tuple[int, int], Tuple[str, int]],
    ) -> None:
        for dest, msgs in sorted(outgoing.items()):
            if dest not in addresses:
                return
            try:
                conn = _connect_with_retry(addresses[dest], self._stop)
            except TransportError:
                return
            with conn:
                conn.sendall(b"".join(encode_msg(msg) for msg in msgs))
                with self._lock:
                    self.sent_log.extend(msgs)


class _ServeLoop:
    """One thread serving the sockets of one or more database endpoints."""

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.endpoints: List[DatabaseEndpoint] = []  # changed only by the loop once started
        self.thread = threading.Thread(target=self._run, daemon=True)

    def add(self, endpoint: DatabaseEndpoint) -> None:
        if self.thread.ident is not None:
            raise TransportError("endpoints join a serve loop before it starts")
        self.endpoints.append(endpoint)
        self.selector.register(endpoint._sock, selectors.EVENT_READ, (endpoint, None))

    def start(self) -> None:
        self.thread.start()

    def _run(self) -> None:
        selector = self.selector
        try:
            while self.endpoints:
                for key, _ in selector.select(self._patience()):
                    endpoint, state = key.data
                    if state is None:
                        self._accept(endpoint)
                    else:
                        self._step(key, endpoint._read_frames)
                for key in list(selector.get_map().values()):
                    endpoint, state = key.data
                    if state is not None and state.waiting:
                        self._step(key, endpoint._answer_waiting)
                for endpoint in [e for e in self.endpoints if e._stop.is_set()]:
                    self._remove(endpoint)
        finally:
            for endpoint in list(self.endpoints):
                self._remove(endpoint)
            selector.close()

    def _patience(self) -> Optional[float]:
        """How long the loop may block: until some waiting query gives up."""
        deadlines = [
            state.deadline
            for endpoint, state in (key.data for key in self.selector.get_map().values())
            if state is not None and state.waiting and not endpoint._ready.is_set()
        ]
        return max(0.0, min(deadlines) - time.monotonic()) if deadlines else None

    def _accept(self, endpoint: DatabaseEndpoint) -> None:
        try:
            conn, _ = endpoint._sock.accept()
        except BlockingIOError:
            return
        except OSError:
            # stop() shut the listening socket down.
            endpoint._stop.set()
            return
        conn.settimeout(SOCKET_TIMEOUT_SECONDS)
        self.selector.register(conn, selectors.EVENT_READ, (endpoint, _Connection()))

    def _step(self, key: selectors.SelectorKey, step) -> None:
        """Run one step for a connection; on failure drop the connection.

        Closing the connection signals the failure to the peer.
        """
        try:
            step(key.fileobj, key.data[1])
        except (ProtocolViolationError, TransportError, OSError):
            self.selector.unregister(key.fileobj)
            key.fileobj.close()

    def _remove(self, endpoint: DatabaseEndpoint) -> None:
        """Stop serving an endpoint: close its connections, forget its socket."""
        for key in list(self.selector.get_map().values()):
            owner, state = key.data
            if owner is endpoint:
                self.selector.unregister(key.fileobj)
                if state is not None:
                    key.fileobj.close()
        self.endpoints.remove(endpoint)
        endpoint._closed.set()


def _connect_with_retry(
    address: Tuple[str, int], stop: Optional[threading.Event] = None
) -> socket.socket:
    deadline = time.monotonic() + CONNECT_RETRY_SECONDS
    while True:
        try:
            conn = socket.create_connection(address, timeout=SOCKET_TIMEOUT_SECONDS)
            conn.settimeout(SOCKET_TIMEOUT_SECONDS)
            return conn
        except OSError as exc:
            if time.monotonic() >= deadline or (stop is not None and stop.is_set()):
                raise TransportError(f"cannot connect to {address}: {exc}") from exc
            time.sleep(0.05)


@dataclass
class _Exchange:
    """The leader's side of one database connection in the query round."""

    dest: Tuple[int, int]
    outgoing: memoryview  # the query frames not yet written, in order
    expected: int  # answers still to come
    buffer: bytearray = field(default_factory=bytearray)


def _query_round(
    addresses: Dict[Tuple[int, int], Tuple[str, int]],
    exchanges: Dict[Tuple[int, int], _Exchange],
) -> List[Message]:
    """Send every query and collect every answer on the calling thread.

    Each database gets one connection. Its queries are written as its socket
    takes them and its answers read as they arrive, so no database waits on
    another.
    """
    selector = selectors.DefaultSelector()
    conns: List[socket.socket] = []
    collected: List[Message] = []
    try:
        for dest, exchange in sorted(exchanges.items()):
            if dest not in addresses:
                raise TransportError(f"no address for database endpoint {dest}")
            conn = _connect_with_retry(addresses[dest])
            conns.append(conn)
            conn.setblocking(False)
            selector.register(conn, selectors.EVENT_READ | selectors.EVENT_WRITE, exchange)
        pending = sum(exchange.expected for exchange in exchanges.values())
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS + SOCKET_TIMEOUT_SECONDS
        while pending:
            events = selector.select(deadline - time.monotonic())
            if not events:
                raise TransportError("query round timed out")
            for key, mask in events:
                conn, exchange = key.fileobj, key.data
                if mask & selectors.EVENT_WRITE and exchange.outgoing:
                    exchange.outgoing = exchange.outgoing[conn.send(exchange.outgoing):]
                    if not exchange.outgoing:
                        selector.modify(conn, selectors.EVENT_READ, exchange)
                if mask & selectors.EVENT_READ:
                    chunk = conn.recv(RECV_BYTES)
                    if not chunk:
                        raise TransportError(f"database {exchange.dest} closed before answering")
                    exchange.buffer += chunk
                    for frame in split_frames(exchange.buffer):
                        exchange.expected -= 1
                        if exchange.expected < 0:
                            raise ProtocolViolationError(
                                f"database {exchange.dest} sent more answers than queries"
                            )
                        collected.append(decode_msg(frame))
                        pending -= 1
    except OSError as exc:
        raise TransportError(f"query round failed: {exc}") from exc
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return collected


def spawn_endpoints(config: SessionConfig) -> List[DatabaseEndpoint]:
    """Start one in-process endpoint per client database (ephemeral ports)."""
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    loop = _ServeLoop()
    endpoints = []
    for client in setup.clients:
        for db in range(1, client.num_databases + 1):
            endpoint = DatabaseEndpoint(config, client.party_id, db)
            endpoint.start(loop)
            endpoints.append(endpoint)
    loop.start()
    return endpoints


def run_networked_session(
    config: SessionConfig,
    endpoints: Optional[List[DatabaseEndpoint]] = None,
) -> SessionTranscript:
    """Run one session over TCP loopback endpoints.

    Without explicit endpoints (and without configured addresses) the runner
    spawns one endpoint per client database, all served by one thread, and
    tears them down afterwards.
    """
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    if not setup.leader.data_set:
        # Nothing to exchange: the intersection is empty by inspection.
        return transcript_from_run(
            config,
            run_protocol(config.parties, config.universe, config.seed, config.leader_override),
        )
    session_id = session_id_for(config)
    owned: List[DatabaseEndpoint] = []
    try:
        if endpoints is None and config.addresses:
            addresses = dict(config.addresses)
            _check_external_addresses(config, setup, addresses)
        else:
            if endpoints is None:
                endpoints = spawn_endpoints(config)
                owned = endpoints
            addresses = {
                (ep.party_id, ep.database): ep.address for ep in endpoints
            }

        plan = make_partition_plan(setup.leader, setup.clients)
        query_plan = generate_queries(plan, setup.field, config.universe, config.seed)
        wire_queries = queries_to_wire(plan.leader_id, query_plan.all_queries(), session_id)
        per_db: Dict[Tuple[int, int], List[Message]] = {}
        for msg in wire_queries:
            per_db.setdefault(msg.dest, []).append(msg)
        exchanges = {
            dest: _Exchange(dest, memoryview(b"".join(encode_msg(m) for m in msgs)), len(msgs))
            for dest, msgs in per_db.items()
        }

        # In-process endpoints start their randomness traffic only now, so
        # the leader's work above does not compete with theirs for the GIL.
        if endpoints is not None:
            for ep in endpoints:
                ep.begin_sharing(addresses)
        collected = _query_round(addresses, exchanges)

        answers = []
        for msg in collected:
            if msg.session_id != session_id or msg.type != "answer":
                raise ProtocolViolationError(f"unexpected frame {msg.type!r} in answer round")
            if len(msg.values) != 1 or msg.values[0] >= setup.field.modulus:
                raise ProtocolViolationError("answer value out of field range")
            answers.append(
                _WireAnswer(
                    client_id=msg.origin[0],
                    database=msg.origin[1],
                    partition=msg.partition,
                    target_pos=msg.target,
                    value=msg.values[0],
                )
            )
        result = decode(plan, answers, setup.field)

        # Evidence log: the randomness traffic is the deterministic function
        # of (config, seed) that the endpoints also computed; queries and
        # answers are logged as observed.
        _, shares = build_bundle(plan, setup.clients, setup.field, config.seed)
        messages = (
            shares_to_wire(shares, session_id)
            + wire_queries
            + sorted(collected, key=Message.sort_key)
        )
        return SessionTranscript(
            session_id=session_id,
            leader_id=plan.leader_id,
            cost_table=setup.costs,
            messages=tuple(messages),
            result=result,
        )
    finally:
        for ep in owned:
            ep.stop()


def _check_external_addresses(config, setup, addresses) -> None:
    for client in setup.clients:
        for db in range(1, client.num_databases + 1):
            if (client.party_id, db) not in addresses:
                raise ConfigError(
                    f"networked transport needs an address for database "
                    f"({client.party_id},{db})"
                )
