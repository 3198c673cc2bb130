"""Networked transport: one TCP endpoint per client database.

Each database is an independently addressable endpoint; a party is only an
administrative grouping. An endpoint is the database.DatabaseState that the
in-memory transport routes between, built from the shared configuration,
behind sockets. The randomness phase runs directly between client endpoints
(individual-value shares to the correlating client's databases, the global
multiplier broadcast from database 1 of the lowest client); the leader
connects to each used database once, sends its queries, and reads the
answers off the same connection, tolerating any interleaving across
databases.

Endpoints are served by a serve loop: one thread multiplexing their
listening sockets, the connections they accept and those they open to send
their shares. The endpoints of spawn_endpoints share one loop; an endpoint
started alone gets a loop of its own. No socket call blocks the loop: share
connections are opened by non-blocking connects, and shares and answers
alike are queued on their connection and written when it is writable.
begin_sharing and stop wake the loop through a socket pair. Queries that
arrive before an endpoint's randomness wait on their connection until it is
installed. The leader runs its whole query round on the calling thread.

Frames carry the wire.Message values that the states and the leader
produce, and nothing is converted on the way: an endpoint hands a decoded
share to its state's receive and a decoded query, checked to come from the
leader, to its state's answer, and frames the answers that come back. A
share connection is done when its receiver, having read every frame,
closes it; its shares are then logged as sent.

The leader's side is session.run_leader; run_networked_session gives it the
TCP exchange. That exchange waits until every in-process endpoint's shares
are sent or have failed, and returns what they logged as sent, in
randomness.share_order. For endpoints given only by address, whose logs it
cannot see, it returns the shares of the same states routed by
randomness.build_bundle. For equal (config, seed) the transcript equals the
in-memory transport's.
"""

from __future__ import annotations

import contextlib
import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .config import SessionConfig
from .database import DatabaseState
from .errors import ConfigError, ProtocolViolationError, TransportError
from .leader import make_plan_shape
from .protocol import SessionSetup, make_session_id, prepare_session
from .randomness import FAITHFUL, RandomnessPolicy, build_bundle, share_order
from .session import SessionTranscript, run_leader
from .wire import Message, decode_msg, encode_msg, split_frames

CONNECT_RETRY_SECONDS = 5.0
READY_TIMEOUT_SECONDS = 15.0
ENDPOINT_POLL_SECONDS = 0.05
SOCKET_TIMEOUT_SECONDS = 15.0
RETRY_PAUSE_SECONDS = 0.05
RECV_BYTES = 1 << 16


@dataclass
class _Connection:
    """An endpoint's side of one connection: accepted, or opened to send shares."""

    buffer: bytearray = field(default_factory=bytearray)  # read, not yet a whole frame
    out: bytearray = field(default_factory=bytearray)  # queued for writing
    unlogged: List[Message] = field(default_factory=list)  # queued, not yet delivered
    waiting: List[Message] = field(default_factory=list)  # queries not yet answered
    deadline: float = 0.0  # when waiting queries, or unfinished shares, give up
    dest: Optional[Tuple[int, int]] = None  # where a share connection goes
    address: Optional[Tuple[str, int]] = None  # the address of dest


class DatabaseEndpoint:
    """One client database serving a single session over TCP: its state behind sockets."""

    def __init__(
        self,
        config: SessionConfig,
        party_id: int,
        database: int,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: RandomnessPolicy = FAITHFUL,
        *,
        _prepared: Optional[Tuple[SessionSetup, str]] = None,
    ):
        self.config = config
        self.party_id = party_id
        self.database = database
        self.sent_log: List[Message] = []
        self.received_log: List[Message] = []
        self.errors: List[TransportError] = []  # shares this endpoint could not send
        self._stop = threading.Event()
        self._closed = threading.Event()  # set once the loop dropped our sockets
        self._shared = threading.Event()  # set once every share is sent or has failed
        self._sending = 0  # share connections not yet done, counted down by the loop
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[_ServeLoop] = None
        self._host = host
        self._port = port

        by_id = {p.party_id: p for p in config.parties}
        if party_id not in by_id:
            raise ConfigError(f"endpoint names unknown party {party_id}")
        profile = by_id[party_id]
        if not 1 <= database <= profile.num_databases:
            raise ConfigError(f"party {party_id} has no database {database}")
        # _prepared: the config's setup and session id, when the caller has
        # them already (spawn_endpoints derives them once for every endpoint).
        if _prepared is None:
            _prepared = (
                prepare_session(config.parties, config.universe, config.leader_override),
                make_session_id(config),
            )
        setup, self.session_id = _prepared
        self.field = setup.field
        self._residues = bytes(range(self.field.modulus))  # the value bytes a query may carry
        self.leader_id = setup.leader.party_id
        if party_id == self.leader_id:
            raise ConfigError("the leader party does not serve database endpoints")
        # Public quantity: set cardinalities are known to everyone. An empty
        # leader set needs no randomness and gets no queries.
        set_size = len(setup.leader.data_set)
        self.state: Optional[DatabaseState] = None
        if set_size:
            shape = make_plan_shape(set_size, setup.clients)
            self.state = DatabaseState(
                shape, profile, database, self.field, config.seed, self.session_id, policy
            )

    def start(self, loop: Optional[_ServeLoop] = None) -> None:
        """Listen, served by loop, or by a loop of its own when none is given.

        A shared loop serves nothing until its owner starts it.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self._host, self._port))
            sock.listen(16)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot listen on {self._host}:{self._port}: {exc}") from exc
        sock.setblocking(False)
        self._sock = sock
        self._loop = loop if loop is not None else _ServeLoop()
        self._loop.add(self)
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
        loop = self._loop
        if loop is not None and loop.thread.is_alive():
            loop.wake()
            self._closed.wait(timeout=2.0)
            if not loop.endpoints:
                loop.thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()

    def begin_sharing(self, addresses: Dict[Tuple[int, int], Tuple[str, int]]) -> None:
        """Have the serve loop send this database's randomness shares."""
        outgoing: Dict[Tuple[int, int], List[Message]] = {}
        for share in self.state.shares() if self.state is not None else ():
            outgoing.setdefault(share.dest, []).append(share)
        self._sending = len(outgoing)
        if not outgoing:
            self._shared.set()
            return
        deadline = time.monotonic() + CONNECT_RETRY_SECONDS
        for dest, msgs in sorted(outgoing.items()):
            frames = bytearray(b"".join(map(encode_msg, msgs)))
            conn = _Connection(out=frames, unlogged=msgs, deadline=deadline, dest=dest)
            conn.address = addresses.get(dest)
            self._loop.requests.put((self, conn))
        self._loop.wake()

    def _read_frames(self, sock: socket.socket, conn: _Connection) -> None:
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            raise TransportError("peer closed the connection")
        conn.buffer += chunk
        for frame in split_frames(conn.buffer):
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
            if self.state is None:
                raise ProtocolViolationError(f"{msg.type!r} frame for an empty leader set")
            if msg.type in ("t_share", "c_share"):
                self.state.receive(msg)
                self.received_log.append(msg)
            elif msg.type == "query":
                # An answer goes back to its query's origin: only the leader's.
                if msg.origin != (self.leader_id, 0):
                    raise ProtocolViolationError(
                        f"query from {msg.origin}, not from the leader ({self.leader_id}, 0)"
                    )
                if len(msg.values) != self.config.universe_size:
                    raise ProtocolViolationError(
                        f"query vector length {len(msg.values)} != universe "
                        f"{self.config.universe_size}"
                    )
                if msg.values.translate(None, self._residues):
                    raise ProtocolViolationError("query value out of field range")
                self.received_log.append(msg)
                if not conn.waiting:
                    conn.deadline = time.monotonic() + READY_TIMEOUT_SECONDS
                conn.waiting.append(msg)
            else:
                raise ProtocolViolationError(f"unexpected {msg.type!r} frame")


class _ServeLoop:
    """One thread serving the sockets of one or more database endpoints.

    Only the loop thread touches the selector, the connections and the
    endpoints' logs; other threads hand it work through requests and wake.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.endpoints: List[DatabaseEndpoint] = []  # changed only by the loop once started
        self.thread = threading.Thread(target=self._run, daemon=True)
        # (endpoint, share connection) from begin_sharing
        self.requests: queue.SimpleQueue = queue.SimpleQueue()
        self._retries: List[Tuple[float, DatabaseEndpoint, _Connection]] = []
        self._wake_lock = threading.Lock()  # the loop closes the waker while others may write
        self._wakeup, self._waker = socket.socketpair()
        self._wakeup.setblocking(False)
        self._waker.setblocking(False)
        self.selector.register(self._wakeup, selectors.EVENT_READ, None)

    def add(self, endpoint: DatabaseEndpoint) -> None:
        if self.thread.ident is not None:
            raise TransportError("endpoints join a serve loop before it starts")
        self.endpoints.append(endpoint)
        self.selector.register(endpoint._sock, selectors.EVENT_READ, (endpoint, None))

    def start(self) -> None:
        self.thread.start()

    def wake(self) -> None:
        """Make the loop take its requests and look at the stop flags."""
        # Fails once the loop has closed the waker, or while it is full of wakeups.
        with self._wake_lock, contextlib.suppress(OSError):
            self._waker.send(b"\0")

    def _run(self) -> None:
        selector = self.selector
        try:
            patience = None
            while self.endpoints:
                for key, mask in selector.select(patience):
                    if key.data is None:
                        self._take_requests()
                    elif key.data[1] is None:
                        self._accept(key.data[0])
                    else:
                        self._step(key, mask)
                patience = self._tick()
        finally:
            for endpoint in list(self.endpoints):
                self._remove(endpoint)
            selector.close()
            with self._wake_lock:
                self._wakeup.close()
                self._waker.close()

    def _take_requests(self) -> None:
        self._wakeup.recv(RECV_BYTES)
        while not self.requests.empty():
            self._connect(*self.requests.get())

    def _connect(self, endpoint: DatabaseEndpoint, conn: _Connection) -> None:
        """Open a share connection; it is writable once connected or refused."""
        if conn.address is None:
            self._finish(endpoint, conn, f"no address for database endpoint {conn.dest}")
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        key = self.selector.register(sock, selectors.EVENT_WRITE, (endpoint, conn))
        try:
            sock.connect(conn.address)
        except BlockingIOError:
            pass
        except OSError as exc:
            self._close(key, exc)

    def _accept(self, endpoint: DatabaseEndpoint) -> None:
        try:
            conn, _ = endpoint._sock.accept()
        except OSError:
            return
        conn.setblocking(False)
        self.selector.register(conn, selectors.EVENT_READ, (endpoint, _Connection()))

    def _step(self, key: selectors.SelectorKey, mask: int) -> None:
        """Serve one ready connection; on failure close it."""
        sock = key.fileobj
        endpoint, conn = key.data
        try:
            if mask & selectors.EVENT_WRITE:
                if conn.dest is not None:
                    # A share connection: its connect may have been refused.
                    error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if error:
                        raise OSError(error, os.strerror(error))
                    conn.deadline = time.monotonic() + SOCKET_TIMEOUT_SECONDS
                self._write(key)
            if mask & selectors.EVENT_READ:
                if conn.dest is None:
                    endpoint._read_frames(sock, conn)
                elif sock.recv(1):
                    raise ProtocolViolationError(f"{conn.dest} wrote on a share connection")
                else:
                    # The receiver closed the connection having read every frame.
                    self._close(key)
        except (ProtocolViolationError, TransportError, OSError) as exc:
            self._close(key, exc)

    def _write(self, key: selectors.SelectorKey) -> None:
        sock = key.fileobj
        endpoint, conn = key.data
        del conn.out[: sock.send(conn.out)]
        if conn.out:
            return
        if conn.dest is not None:
            sock.shutdown(socket.SHUT_WR)  # then wait for the receiver to close
        else:
            endpoint.sent_log.extend(conn.unlogged)
            conn.unlogged = []
        self.selector.modify(sock, selectors.EVENT_READ, key.data)

    def _tick(self) -> Optional[float]:
        """Retry refused connects, answer queries now ready, enforce deadlines.

        Returns how long the loop may block: until the next retry or deadline.
        """
        now = time.monotonic()
        due = [retry for retry in self._retries if retry[0] <= now]
        self._retries = [retry for retry in self._retries if retry[0] > now]
        for _, endpoint, conn in due:
            self._connect(endpoint, conn)
        times = [retry_at for retry_at, _, _ in self._retries]
        for key in list(self.selector.get_map().values()):
            if key.data is None or key.data[1] is None:
                continue
            endpoint, conn = key.data
            try:
                if conn.waiting and endpoint.state.ready:
                    answers = endpoint.state.answer(conn.waiting, endpoint.config.universe)
                    conn.waiting = []
                    conn.out += b"".join(map(encode_msg, answers))
                    conn.unlogged.extend(answers)
                    self.selector.modify(
                        key.fileobj, selectors.EVENT_READ | selectors.EVENT_WRITE, key.data
                    )
                elif conn.waiting and now >= conn.deadline:
                    raise TransportError("randomness was not installed in time")
                elif conn.dest is not None and now >= conn.deadline:
                    raise TransportError("timed out")
                elif conn.dest is not None or conn.waiting:
                    times.append(conn.deadline)
            except (ProtocolViolationError, TransportError) as exc:
                self._close(key, exc)
        for endpoint in [e for e in self.endpoints if e._stop.is_set()]:
            self._remove(endpoint)
        return max(0.0, min(times) - now) if times else None

    def _close(self, key: selectors.SelectorKey, cause=None) -> None:
        """Close a connection, failed when cause is given, which tells the peer.

        A share connection that closes ends its shares, as sent or as failed.
        """
        self.selector.unregister(key.fileobj)
        key.fileobj.close()
        endpoint, conn = key.data
        if conn.dest is not None:
            self._finish(endpoint, conn, cause)

    def _finish(self, endpoint: DatabaseEndpoint, conn: _Connection, cause=None) -> None:
        """End a share connection: its shares are sent, or cause says why not.

        A refused connect is tried again shortly, until the connection's
        deadline: its receiver may not listen yet.
        """
        retry_at = time.monotonic() + RETRY_PAUSE_SECONDS
        if isinstance(cause, ConnectionRefusedError) and retry_at < conn.deadline:
            self._retries.append((retry_at, endpoint, conn))
            return
        if cause is None:
            endpoint.sent_log.extend(conn.unlogged)
        else:
            sender = (endpoint.party_id, endpoint.database)
            endpoint.errors.append(
                TransportError(f"shares from {sender} to {conn.dest} not sent: {cause}")
            )
        endpoint._sending -= 1
        if not endpoint._sending:
            endpoint._shared.set()

    def _remove(self, endpoint: DatabaseEndpoint) -> None:
        """Stop serving an endpoint: close its connections, forget its socket."""
        for key in list(self.selector.get_map().values()):
            if key.data is not None and key.data[0] is endpoint:
                self.selector.unregister(key.fileobj)
                if key.data[1] is not None:
                    key.fileobj.close()
        self._retries = [retry for retry in self._retries if retry[1] is not endpoint]
        self.endpoints.remove(endpoint)
        endpoint._closed.set()


def _connect_with_retry(address: Tuple[str, int]) -> socket.socket:
    deadline = time.monotonic() + CONNECT_RETRY_SECONDS
    while True:
        try:
            return socket.create_connection(address, timeout=SOCKET_TIMEOUT_SECONDS)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(f"cannot connect to {address}: {exc}") from exc
            time.sleep(RETRY_PAUSE_SECONDS)


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
    leader: Tuple[int, int],
    endpoints: Sequence[DatabaseEndpoint] = (),
) -> List[Message]:
    """Send every query and collect every answer on the calling thread.

    Each database gets one connection. Its queries are written as its socket
    takes them and its answers read as they arrive, so no database waits on
    another. An answer must come from the database its connection reaches
    and be addressed to the leader.

    While in-process endpoints serve the session, the round looks at their
    recorded errors at least every ENDPOINT_POLL_SECONDS and fails with the
    first one as its cause; a round that fails otherwise names them too.
    """
    try:
        return _exchange_all(addresses, exchanges, leader, endpoints)
    except (TransportError, ProtocolViolationError) as exc:
        errors = _endpoint_errors(endpoints)
        if not errors or exc.__cause__ in errors:
            raise
        listed = "; ".join(str(error) for error in errors)
        raise type(exc)(f"{exc} (endpoint errors: {listed})") from exc


def _endpoint_errors(endpoints: Sequence[DatabaseEndpoint]) -> List[TransportError]:
    return [error for endpoint in endpoints for error in endpoint.errors]


def _exchange_all(
    addresses: Dict[Tuple[int, int], Tuple[str, int]],
    exchanges: Dict[Tuple[int, int], _Exchange],
    leader: Tuple[int, int],
    endpoints: Sequence[DatabaseEndpoint],
) -> List[Message]:
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
            wait = deadline - time.monotonic()
            events = selector.select(min(wait, ENDPOINT_POLL_SECONDS) if endpoints else wait)
            errors = _endpoint_errors(endpoints)
            if errors:
                raise TransportError(f"a database endpoint failed: {errors[0]}") from errors[0]
            if not events:
                if time.monotonic() < deadline:
                    continue
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
                        msg = decode_msg(frame)
                        if msg.origin != exchange.dest or msg.dest != leader:
                            raise ProtocolViolationError(
                                f"answer from {msg.origin} to {msg.dest} arrived on "
                                f"the connection to {exchange.dest}"
                            )
                        collected.append(msg)
                        pending -= 1
    except OSError as exc:
        raise TransportError(f"query round failed: {exc}") from exc
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return collected


def spawn_endpoints(
    config: SessionConfig,
    policy: RandomnessPolicy = FAITHFUL,
    *,
    _prepared: Optional[Tuple[SessionSetup, str]] = None,
) -> List[DatabaseEndpoint]:
    """Start one in-process endpoint per client database (ephemeral ports)."""
    # _prepared: the config's setup and session id, when the caller has them
    # already (run_networked_session gets both from run_leader).
    if _prepared is None:
        _prepared = (
            prepare_session(config.parties, config.universe, config.leader_override),
            make_session_id(config),
        )
    setup = _prepared[0]
    loop = _ServeLoop()
    endpoints = []
    for client in setup.clients:
        for db in range(1, client.num_databases + 1):
            endpoint = DatabaseEndpoint(
                config, client.party_id, db, policy=policy, _prepared=_prepared
            )
            endpoint.start(loop)
            endpoints.append(endpoint)
    loop.start()
    return endpoints


def run_networked_session(
    config: SessionConfig,
    endpoints: Optional[List[DatabaseEndpoint]] = None,
    policy: RandomnessPolicy = FAITHFUL,
) -> SessionTranscript:
    """Run one session over TCP loopback endpoints.

    Without explicit endpoints (and without configured addresses) the runner
    spawns one endpoint per client database under policy, all served by one
    thread, and tears them down afterwards.
    """

    def exchange(setup, plan, query_plan, session_id):
        leader = (plan.leader_id, 0)
        exchanges = {
            dest: _Exchange(dest, memoryview(b"".join(map(encode_msg, msgs))), len(msgs))
            for dest, msgs in query_plan.queries.items()
        }
        if endpoints is None and config.addresses:
            addresses = dict(config.addresses)
            _check_external_addresses(setup, addresses)
            answers = _query_round(addresses, exchanges, leader)
            # External endpoints keep their logs: route the same states here.
            _, shares = build_bundle(
                plan, setup.clients, setup.field, config.seed, session_id, policy
            )
            return shares, answers
        serving = endpoints
        if serving is None:
            serving = spawn_endpoints(config, policy, _prepared=(setup, session_id))
        try:
            addresses = {(ep.party_id, ep.database): ep.address for ep in serving}
            # In-process endpoints start their randomness traffic only now, so
            # the leader's work above does not compete with theirs for the GIL.
            for ep in serving:
                ep.begin_sharing(addresses)
            answers = _query_round(addresses, exchanges, leader, serving)
            return _sent_shares(serving), answers
        finally:
            if endpoints is None:
                for ep in serving:
                    ep.stop()

    return run_leader(config, exchange)


def _sent_shares(endpoints: Sequence[DatabaseEndpoint]) -> List[Message]:
    """The shares the endpoints logged as sent, in canonical order, once all are done."""
    # The loop ends every share connection within this time.
    for endpoint in endpoints:
        if not endpoint._shared.wait(CONNECT_RETRY_SECONDS + SOCKET_TIMEOUT_SECONDS):
            raise TransportError(
                f"shares from {(endpoint.party_id, endpoint.database)} still unsent"
            )
    errors = _endpoint_errors(endpoints)
    if errors:
        raise TransportError(f"a database endpoint failed: {errors[0]}") from errors[0]
    sent = [msg for endpoint in endpoints for msg in endpoint.sent_log]
    return sorted((msg for msg in sent if msg.phase == "randomness"), key=share_order)


def _check_external_addresses(setup, addresses) -> None:
    for client in setup.clients:
        for db in range(1, client.num_databases + 1):
            if (client.party_id, db) not in addresses:
                raise ConfigError(
                    f"networked transport needs an address for database "
                    f"({client.party_id},{db})"
                )
