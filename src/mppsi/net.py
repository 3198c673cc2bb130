"""Networked transport: one TCP endpoint per client database.

Each database is an independently addressable endpoint, a party only an
administrative grouping: a database.DatabaseState, dealt before the session
(session.deal), behind sockets, answering its queries through
client.answer_all as the in-memory transport does. The state is all an
endpoint holds: its address, session id, field, leader and K are the
state's, so it holds no config, no seed and no other party's set, and it
refuses the frames of any other session. spawn_endpoints deals once and
starts one endpoint per dealt state; an empty leader set deals none, and
gets no endpoint and no serve loop. No endpoint opens a connection: the
only connections of a session run from the leader to each queried
database. The leader connects to each queried database once, sends its
queries, a consecutive run of the session's (which come in transcript
order), and reads the answers off the same connection, in any
interleaving; an endpoint answers the queries of each read at once.

The endpoints run on a serve loop: one thread multiplexing their listening
sockets and the connections they accept, so no socket call blocks it; the
endpoints of spawn_endpoints share one loop, and an endpoint started alone
gets a loop of its own. The leader's query round runs in its caller's
thread on blocking sockets: it connects to every queried database
(retrying a refused connect, as a database may not listen yet), then sends
each its frames, then reads each one's answers, each connection under a
deadline.

Frames are wire's binary frames: each carries one wire.Message of a state
or the leader, its residue bytes as they are. A query connection expects
one answer per query, each from the database it reaches to the leader, so
it is done at the last; an endpoint closes a connection at its peer's EOF.

run_networked_session gives session.run_leader the TCP exchange; the runner
and the dealing read their setup and session id from config.prepared, so
for equal (config, seed) the transcript equals the in-memory transport's.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .client import answer_all
from .config import SessionConfig
from .database import DatabaseState
from .errors import ConfigError, MppsiError, ProtocolViolationError, TransportError
from .session import SessionTranscript, deal, run_leader
from .wire import Message, decode_msg, encode_msg, split_frames

CONNECT_RETRY_SECONDS = 5.0
SOCKET_TIMEOUT_SECONDS = 15.0
RETRY_PAUSE_SECONDS = 0.05
RECV_BYTES = 1 << 16
ERRORS_KEPT = 32


@dataclass
class _Connection:
    """One connection an endpoint accepted, on its serve loop."""

    out: bytearray = field(default_factory=bytearray)  # queued for writing
    buffer: bytearray = field(default_factory=bytearray)  # read, not yet a whole frame


class DatabaseEndpoint:
    """One client database serving its session over TCP: its dealt state behind sockets.

    The state (session.deal) is all it holds: its address, session id,
    field, leader and K are the state's. errors keeps, in order, the causes
    of the last ERRORS_KEPT connections it closed on a fault, each stripped
    of its traceback and chained errors, which held the connection's data;
    on_error, if given, is called on the serve loop with each cause as it
    comes.
    """

    def __init__(
        self, state: DatabaseState, host: str = "127.0.0.1", port: int = 0,
        on_error: Optional[Callable[[Exception], None]] = None,
    ):
        self.state = state
        self.errors: Deque[Exception] = collections.deque(maxlen=ERRORS_KEPT)
        self._on_error = on_error
        self._residues = bytes(range(state.field.modulus))  # the value bytes a query may carry
        self._stop = threading.Event()
        self._closed = threading.Event()  # set once the loop dropped our sockets
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[_ServeLoop] = None
        self._host = host
        self._port = port

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

    def _read_frames(self, chunk: bytes, conn: _Connection) -> None:
        """Take the leader's queries in chunk, read off conn, and queue their answers on conn."""
        conn.buffer += chunk
        state = self.state
        queries = []
        for frame in split_frames(conn.buffer):
            msg = decode_msg(frame)
            if msg.session_id != state.session_id:
                raise ProtocolViolationError(
                    f"frame for session {msg.session_id}, serving {state.session_id}"
                )
            if msg.dest != state.address:
                raise ProtocolViolationError(
                    "frame for {} delivered to ({},{})".format(msg.dest, *state.address)
                )
            if msg.type != "query":
                raise ProtocolViolationError(f"unexpected {msg.type!r} frame")
            # An answer goes back to its query's origin: only the leader's.
            if msg.origin != (state.leader, 0):
                raise ProtocolViolationError(
                    f"query from {msg.origin}, not from the leader ({state.leader}, 0)"
                )
            if msg.values.translate(None, self._residues):
                raise ProtocolViolationError("query value out of field range")
            queries.append(msg)
        if queries:
            conn.out += b"".join(map(encode_msg, answer_all(state, queries)))

    def _fault(self, cause: Exception) -> None:
        """Keep the cause of a connection closed on a fault, and report it."""
        cause.__traceback__ = cause.__context__ = cause.__cause__ = None
        self.errors.append(cause)
        if self._on_error is not None:
            self._on_error(cause)


class _ServeLoop:
    """One thread serving database endpoints: it listens, accepts, answers and stops.

    Only the loop thread touches the selector and the connections; another
    thread stops an endpoint by setting its stop flag and waking the loop.
    It runs until it serves no endpoint.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.endpoints: List[DatabaseEndpoint] = []  # changed only by the loop once started
        self.thread = threading.Thread(target=self._run, daemon=True)
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
        """Make the loop look at the stop flags."""
        # Fails once the loop has closed the waker, or while it is full of wakeups.
        with self._wake_lock, contextlib.suppress(OSError):
            self._waker.send(b"\0")

    def _run(self) -> None:
        selector = self.selector
        try:
            while self.endpoints:
                for key, mask in selector.select():
                    if key.data is None:
                        self._wakeup.recv(RECV_BYTES)
                    elif key.data[1] is None:
                        self._accept(key.data[0])
                    else:
                        self._step(key, mask)
                for endpoint in [e for e in self.endpoints if e._stop.is_set()]:
                    self._remove(endpoint)
        finally:
            for endpoint in list(self.endpoints):
                self._remove(endpoint)
            selector.close()
            with self._wake_lock:
                self._wakeup.close()
                self._waker.close()

    def _accept(self, endpoint: DatabaseEndpoint) -> None:
        try:
            conn, _ = endpoint._sock.accept()
        except OSError:
            return
        conn.setblocking(False)
        self.selector.register(conn, selectors.EVENT_READ, (endpoint, _Connection()))

    def _step(self, key: selectors.SelectorKey, mask: int) -> None:
        """Serve one ready connection; close it at its peer's EOF, or on failure."""
        sock = key.fileobj
        endpoint, conn = key.data
        try:
            if mask & selectors.EVENT_WRITE:
                del conn.out[: sock.send(conn.out)]
                if not conn.out:
                    self.selector.modify(sock, selectors.EVENT_READ, key.data)
            if mask & selectors.EVENT_READ:
                chunk = sock.recv(RECV_BYTES)
                if not chunk:
                    self._close(key)
                    return
                endpoint._read_frames(chunk, conn)
                if conn.out:
                    events = selectors.EVENT_READ | selectors.EVENT_WRITE
                    self.selector.modify(sock, events, key.data)
        except (ProtocolViolationError, OSError) as exc:
            self._close(key, exc)

    def _close(self, key: selectors.SelectorKey, cause=None) -> None:
        """Close an accepted connection: its peer is done, or it failed for cause,
        which the closing tells the peer and its endpoint's errors keep."""
        if cause is not None:
            key.data[0]._fault(cause)
        self.selector.unregister(key.fileobj)
        key.fileobj.close()

    def _remove(self, endpoint: DatabaseEndpoint) -> None:
        """Stop serving an endpoint: close its connections, forget it."""
        for key in list(self.selector.get_map().values()):
            if key.data is not None and key.data[0] is endpoint:
                self.selector.unregister(key.fileobj)
                if key.data[1] is not None:
                    key.fileobj.close()
        self.endpoints.remove(endpoint)
        endpoint._closed.set()


def _within(sock: socket.socket, deadline: float) -> None:
    """Time sock's next call out at deadline."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    sock.settimeout(left)


def _connect(
    dest: Tuple[int, int], address: Optional[Tuple[str, int]], deadline: float
) -> socket.socket:
    """The leader's connection to dest at address.

    A refused connect is tried again shortly, until deadline: its database
    may not listen yet.
    """
    if address is None:
        raise TransportError(f"no address for database endpoint {dest}")
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            _within(sock, deadline)
            sock.connect(address)
            return sock
        except OSError as exc:
            sock.close()
            retry_at = time.monotonic() + RETRY_PAUSE_SECONDS
            if not isinstance(exc, ConnectionRefusedError) or retry_at >= deadline:
                raise
        time.sleep(RETRY_PAUSE_SECONDS)


def _read_answers(
    sock: socket.socket, deadline: float, dest: Tuple[int, int], leader: Tuple[int, int],
    expected: int,
) -> List[Message]:
    """Read off sock the expected answers, each from dest to the leader."""
    answers: List[Message] = []
    buffer = bytearray()
    while len(answers) < expected:
        _within(sock, deadline)
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            raise TransportError(f"database {dest} closed before answering")
        buffer += chunk
        for frame in split_frames(buffer):
            msg = decode_msg(frame)
            if len(answers) == expected or msg.origin != dest or msg.dest != leader:
                raise ProtocolViolationError(
                    f"unexpected answer from {msg.origin} to {msg.dest} on "
                    f"the connection to {dest}"
                )
            answers.append(msg)
    return answers


def _query_round(
    addresses: Dict[Tuple[int, int], Tuple[str, int]],
    queries: Dict[Tuple[int, int], Tuple[bytearray, int]],
    leader: Tuple[int, int],
) -> List[Message]:
    """Send every query and collect every answer, on blocking sockets in this thread.

    queries maps each database to its query frames and their count. The
    round connects to every queried database, then sends each its frames,
    then reads each one's answers, in address order: the transcript's. Each
    connection times out SOCKET_TIMEOUT_SECONDS after its own connect, so
    connecting to all first bounds the round by CONNECT_RETRY_SECONDS +
    SOCKET_TIMEOUT_SECONDS.
    """
    retry_until = time.monotonic() + CONNECT_RETRY_SECONDS
    conns = []  # (database, its socket, its deadline)
    answers: List[Message] = []
    try:
        # Each step names its database dest, which a failure is reported for.
        for dest in sorted(queries):
            sock = _connect(dest, addresses.get(dest), retry_until)
            conns.append((dest, sock, time.monotonic() + SOCKET_TIMEOUT_SECONDS))
        for dest, sock, deadline in conns:
            _within(sock, deadline)
            sock.sendall(queries[dest][0])
        for dest, sock, deadline in conns:
            answers += _read_answers(sock, deadline, dest, leader, queries[dest][1])
    except (MppsiError, OSError) as cause:
        kind = type(cause) if isinstance(cause, MppsiError) else TransportError
        raise kind(f"queries to {dest} not answered: {cause}") from cause
    finally:
        for _, sock, _ in conns:
            sock.close()
    return answers


def spawn_endpoints(config: SessionConfig) -> List[DatabaseEndpoint]:
    """Deal the config's session once and start one in-process endpoint per
    client database on its state (ephemeral ports), all on one serve loop.

    An empty leader set deals no state: no endpoint, and no loop.
    """
    endpoints = [DatabaseEndpoint(state) for state in deal(config).values()]
    if endpoints:
        loop = _ServeLoop()
        for endpoint in endpoints:
            endpoint.start(loop)
        loop.start()
    return endpoints


def run_networked_session(
    config: SessionConfig, endpoints: Optional[List[DatabaseEndpoint]] = None
) -> SessionTranscript:
    """Run one session over TCP loopback endpoints.

    Without explicit endpoints (and without configured addresses) the runner
    spawns one endpoint per client database, all served by one thread, and
    tears them down afterwards. The runner and the endpoints dealt from this
    config object read one config.prepared, so the session elects and
    derives its session id once.
    """

    def exchange(sent):
        setup, _ = config.prepared
        leader = (setup.leader.party_id, 0)
        queries = {}
        for dest, msgs in itertools.groupby(sent, key=lambda query: query.dest):
            frames = list(map(encode_msg, msgs))
            queries[dest] = (bytearray().join(frames), len(frames))
        if endpoints is None and config.addresses:
            _check_external_addresses(setup, config.addresses)
            return _query_round(config.addresses, queries, leader)
        serving = endpoints if endpoints is not None else spawn_endpoints(config)
        try:
            return _query_round({ep.state.address: ep.address for ep in serving}, queries, leader)
        finally:
            if endpoints is None:
                for ep in serving:
                    ep.stop()

    return run_leader(config, exchange)


def _check_external_addresses(setup, addresses) -> None:
    for client in setup.clients:
        for db in range(1, client.num_databases + 1):
            if (client.party_id, db) not in addresses:
                raise ConfigError(
                    f"networked transport needs an address for database "
                    f"({client.party_id},{db})"
                )
