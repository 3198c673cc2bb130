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

Both sides run on a serve loop: one thread multiplexing the endpoints'
listening sockets, the connections they accept, and the leader's outgoing
query connections. The endpoints of spawn_endpoints share one loop, and the
leader's query round runs on it; an endpoint started alone gets a loop of
its own, and so does a round whose databases are known only by address,
until it ends. No socket call blocks the loop: connects are non-blocking
and a refused one is retried, and frames are queued until their connection
is writable.

Frames are wire's binary frames: each carries one wire.Message of a state
or the leader, its residue bytes as they are. A query connection expects
one answer per query, each from the database it reaches to the leader, so
it is done at the last.

run_networked_session gives session.run_leader the TCP exchange; the runner
and the dealing read their setup and session id from config.prepared, so
for equal (config, seed) the transcript equals the in-memory transport's.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


@dataclass
class _Connection:
    """One connection on a serve loop: accepted by an endpoint, or the leader's outgoing one."""

    out: bytearray = field(default_factory=bytearray)  # queued for writing
    deadline: float = 0.0  # when an unfinished outgoing connection gives up
    dest: Optional[Tuple[int, int]] = None  # where an outgoing connection goes
    address: Optional[Tuple[str, int]] = None  # the address of dest
    expected: int = 0  # the answers an outgoing connection still expects
    buffer: bytearray = field(default_factory=bytearray)  # read, not yet a whole frame


class DatabaseEndpoint:
    """One client database serving its session over TCP: its dealt state behind sockets.

    The state (session.deal) is all it holds: its address, session id,
    field, leader and K are the state's.
    """

    def __init__(self, state: DatabaseState, host: str = "127.0.0.1", port: int = 0):
        self.state = state
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

    def _read_frames(self, sock: socket.socket, conn: _Connection) -> None:
        """Read the leader's queries and queue their answers on conn."""
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            raise TransportError("peer closed the connection")
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


@dataclass(eq=False)
class _Round:
    """The leader's query round on a serve loop: one connection per database."""

    leader: Tuple[int, int]
    open: int  # query connections not yet done
    answers: List[Message] = field(default_factory=list)
    error: Optional[MppsiError] = None
    done: threading.Event = field(default_factory=threading.Event)


class _ServeLoop:
    """One thread serving database endpoints and the leader's query rounds.

    Only the loop thread touches the selector, the connections and the
    rounds; other threads hand it work through requests and wake. It runs
    until it serves neither endpoints nor rounds.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.endpoints: List[DatabaseEndpoint] = []  # changed only by the loop once started
        self.rounds: List[_Round] = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.requests: queue.SimpleQueue = queue.SimpleQueue()  # (round, its connections)
        self._retries: List[Tuple[float, _Round, _Connection]] = []
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
            while True:
                for key, mask in selector.select(patience):
                    if key.data is None:
                        self._take_requests()
                    elif key.data[1] is None:
                        self._accept(key.data[0])
                    else:
                        self._step(key, mask)
                patience = self._tick()
                if not (self.endpoints or self.rounds):
                    break
        finally:
            for owner in self.endpoints + self.rounds:
                self._remove(owner)
            selector.close()
            with self._wake_lock:
                self._wakeup.close()
                self._waker.close()

    def _take_requests(self) -> None:
        self._wakeup.recv(RECV_BYTES)
        while not self.requests.empty():
            rnd, conns = self.requests.get()
            self.rounds.append(rnd)
            for conn in conns:
                self._connect(rnd, conn)

    def _connect(self, rnd: _Round, conn: _Connection) -> None:
        """Open a query connection; it is writable once connected or refused."""
        if conn.address is None:
            missing = TransportError(f"no address for database endpoint {conn.dest}")
            self._finish(rnd, conn, missing)
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        key = self.selector.register(sock, selectors.EVENT_WRITE, (rnd, conn))
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
        owner, conn = key.data
        try:
            if mask & selectors.EVENT_WRITE:
                if conn.dest is not None:
                    # A query connection: its connect may have been refused.
                    error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if error:
                        raise OSError(error, os.strerror(error))
                    conn.deadline = time.monotonic() + SOCKET_TIMEOUT_SECONDS
                del conn.out[: sock.send(conn.out)]
                if not conn.out:
                    self.selector.modify(sock, selectors.EVENT_READ, key.data)
            if mask & selectors.EVENT_READ:
                if conn.dest is not None:
                    self._read_replies(key)
                else:
                    owner._read_frames(sock, conn)
                    if conn.out:
                        events = selectors.EVENT_READ | selectors.EVENT_WRITE
                        self.selector.modify(sock, events, key.data)
        except (ProtocolViolationError, TransportError, OSError) as exc:
            self._close(key, exc)

    def _read_replies(self, key: selectors.SelectorKey) -> None:
        """Read a query connection until it has every answer it expects."""
        sock = key.fileobj
        rnd, conn = key.data
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            raise TransportError(f"database {conn.dest} closed before answering")
        conn.buffer += chunk
        for frame in split_frames(conn.buffer):
            msg = decode_msg(frame)
            if not conn.expected or msg.origin != conn.dest or msg.dest != rnd.leader:
                raise ProtocolViolationError(
                    f"unexpected answer from {msg.origin} to {msg.dest} on "
                    f"the connection to {conn.dest}"
                )
            rnd.answers.append(msg)
            conn.expected -= 1
        if not conn.expected:
            self._close(key)

    def _tick(self) -> Optional[float]:
        """Retry refused connects, enforce deadlines, end rounds and stopped endpoints.

        Returns how long the loop may block: until the next retry or deadline.
        """
        now = time.monotonic()
        due = [retry for retry in self._retries if retry[0] <= now]
        self._retries = [retry for retry in self._retries if retry[0] > now]
        for _, rnd, conn in due:
            self._connect(rnd, conn)
        times = [retry_at for retry_at, _, _ in self._retries]
        for key in list(self.selector.get_map().values()):
            conn = key.data[1] if key.data is not None else None
            if conn is None or conn.dest is None:
                continue
            if now >= conn.deadline:
                self._close(key, TransportError("timed out"))
            else:
                times.append(conn.deadline)
        for rnd in [rnd for rnd in self.rounds if rnd.error or not rnd.open]:
            self._remove(rnd)
        for endpoint in [e for e in self.endpoints if e._stop.is_set()]:
            self._remove(endpoint)
        return max(0.0, min(times) - now) if times else None

    def _close(self, key: selectors.SelectorKey, cause=None) -> None:
        """Close a connection, failed when cause is given, which tells the peer.

        A query connection that closes is done, or failed for cause.
        """
        self.selector.unregister(key.fileobj)
        key.fileobj.close()
        owner, conn = key.data
        if conn.dest is not None:
            self._finish(owner, conn, cause)

    def _finish(self, rnd: _Round, conn: _Connection, cause=None) -> None:
        """End a query connection: done, or failed for cause, which fails its round.

        A refused connect is tried again shortly, until the connection's
        deadline: its database may not listen yet.
        """
        retry_at = time.monotonic() + RETRY_PAUSE_SECONDS
        if isinstance(cause, ConnectionRefusedError) and retry_at < conn.deadline:
            self._retries.append((retry_at, rnd, conn))
            return
        if cause is not None and rnd.error is None:
            kind = type(cause) if isinstance(cause, MppsiError) else TransportError
            rnd.error = kind(f"queries to {conn.dest} not answered: {cause}")
            rnd.error.__cause__ = cause
        rnd.open -= 1

    def _remove(self, owner: DatabaseEndpoint | _Round) -> None:
        """Stop serving an endpoint or a round: close its connections, forget it."""
        for key in list(self.selector.get_map().values()):
            if key.data is not None and key.data[0] is owner:
                self.selector.unregister(key.fileobj)
                if key.data[1] is not None:
                    key.fileobj.close()
        self._retries = [retry for retry in self._retries if retry[1] is not owner]
        if isinstance(owner, _Round):
            self.rounds.remove(owner)
            owner.done.set()
        else:
            self.endpoints.remove(owner)
            owner._closed.set()


def _query_round(
    addresses: Dict[Tuple[int, int], Tuple[str, int]],
    queries: Dict[Tuple[int, int], Tuple[bytearray, int]],
    leader: Tuple[int, int],
    loop: Optional[_ServeLoop] = None,
) -> List[Message]:
    """Send every query and collect every answer on a serve loop.

    queries maps each database to its query frames and their count. The
    round runs on loop, the in-process endpoints' loop, or on one of its own.
    """
    deadline = time.monotonic() + CONNECT_RETRY_SECONDS
    conns = [
        _Connection(frames, deadline, dest, addresses.get(dest), count)
        for dest, (frames, count) in sorted(queries.items())
    ]
    rnd = _Round(leader, len(conns))
    if loop is None:
        loop = _ServeLoop()
        loop.start()
    loop.requests.put((rnd, conns))
    loop.wake()
    # Each connection ends by its deadlines within this time.
    if rnd.done.wait(CONNECT_RETRY_SECONDS + SOCKET_TIMEOUT_SECONDS) and not (
        rnd.error or rnd.open
    ):
        return rnd.answers
    raise rnd.error or TransportError("query round did not finish")


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
            addresses = {ep.state.address: ep.address for ep in serving}
            return _query_round(addresses, queries, leader, serving[0]._loop if serving else None)
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
