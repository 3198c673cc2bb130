"""Networked transport: one TCP endpoint per client database.

Each database is an independently addressable endpoint, a party only an
administrative grouping: the database.DatabaseState that the in-memory
transport routes between, behind sockets, answering its queries through
client.answer_all as the in-memory transport does. Client endpoints send
each other their randomness shares (individual values to the correlating
client's databases, the global multiplier from database 1 of the lowest
client); the leader connects to each queried database once, sends its
queries and reads the answers off the same connection, in any interleaving.

Both sides run on a serve loop: one thread multiplexing the endpoints'
listening sockets, the connections they accept, and outgoing connections,
which carry an endpoint's shares or the leader's queries. The endpoints of
spawn_endpoints share one loop, and the leader's query round runs on it; an
endpoint started alone gets a loop of its own, and so does a round whose
databases are known only by address, until it ends. No socket call blocks
the loop: connects are non-blocking and a refused one is retried, frames
are queued until their connection is writable, and queries that arrive
before an endpoint's randomness wait until it is installed.

Frames are wire's binary frames: each carries one wire.Message of the
states or the leader, its residue bytes as they are. An outgoing connection
counts the replies it expects: a share connection none, so it is done when
its receiver, having read every frame, closes it; a query connection one
answer per query, each from the database it reaches to the leader, so it is
done at the last.

run_networked_session gives session.run_leader the TCP exchange; the runner and
every endpoint read their setup and session id from config.prepared. Its round
also waits until each in-process endpoint's shares are sent or have failed,
and fails at once, with the error as its cause, when one records an error.
So once it returns, what those endpoints sent is their states' shares(), and
the exchange returns these in randomness.share_order, as build_bundle does:
for equal (config, seed) the transcript equals the in-memory transport's.
Endpoints given only by address keep their shares: the leader never sees
one, and its transcript has no randomness section.
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

from .client import answer_all
from .config import SessionConfig
from .database import DatabaseState
from .errors import ConfigError, MppsiError, ProtocolViolationError, TransportError
from .leader import make_plan_shape
from .randomness import FAITHFUL, RandomnessPolicy, share_order
from .session import SessionTranscript, run_leader
from .wire import Message, decode_msg, encode_msg, split_frames

CONNECT_RETRY_SECONDS = 5.0
READY_TIMEOUT_SECONDS = 15.0
SOCKET_TIMEOUT_SECONDS = 15.0
RETRY_PAUSE_SECONDS = 0.05
RECV_BYTES = 1 << 16


@dataclass
class _Connection:
    """One connection on a serve loop: accepted by an endpoint, or outgoing."""

    out: bytearray = field(default_factory=bytearray)  # queued for writing
    deadline: float = 0.0  # when waiting queries, or an unfinished outgoing connection, give up
    dest: Optional[Tuple[int, int]] = None  # where an outgoing connection goes
    address: Optional[Tuple[str, int]] = None  # the address of dest
    expected: int = 0  # the replies an outgoing connection still expects: answers
    buffer: bytearray = field(default_factory=bytearray)  # read, not yet a whole frame
    waiting: List[Message] = field(default_factory=list)  # queries not yet answered


class DatabaseEndpoint:
    """One client database serving its config's sessions over TCP: its state behind sockets."""

    def __init__(
        self,
        config: SessionConfig,
        party_id: int,
        database: int,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: RandomnessPolicy = FAITHFUL,
    ):
        self.config = config
        self.party_id = party_id
        self.database = database
        self.errors: List[TransportError] = []  # shares this endpoint could not send
        self._stop = threading.Event()
        self._closed = threading.Event()  # set once the loop dropped our sockets
        self._shared = threading.Event()  # set once every share is sent or has failed
        self._sending: Optional[int] = None  # share connections not yet done; None before sharing
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
        setup, self.session_id = config.prepared
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
        """Have the serve loop send this database's shares, once: a receiver refuses a copy."""
        if self._loop is None:
            raise TransportError("endpoint not started")
        if self._sending is not None:
            return
        outgoing: Dict[Tuple[int, int], List[Message]] = {}
        for share in self.state.shares() if self.state is not None else ():
            outgoing.setdefault(share.dest, []).append(share)
        self._sending = len(outgoing)
        if not outgoing:
            self._shared.set()
            return
        deadline = time.monotonic() + CONNECT_RETRY_SECONDS
        conns = []
        for dest, msgs in sorted(outgoing.items()):
            frames = bytearray().join(map(encode_msg, msgs))
            conns.append(_Connection(frames, deadline, dest, addresses.get(dest)))
        self._loop.requests.put((self, conns))
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
            elif msg.type == "query":
                # An answer goes back to its query's origin: only the leader's.
                if msg.origin != (self.leader_id, 0):
                    raise ProtocolViolationError(
                        f"query from {msg.origin}, not from the leader ({self.leader_id}, 0)"
                    )
                if msg.values.translate(None, self._residues):
                    raise ProtocolViolationError("query value out of field range")
                if not conn.waiting:
                    conn.deadline = time.monotonic() + READY_TIMEOUT_SECONDS
                conn.waiting.append(msg)
            else:
                raise ProtocolViolationError(f"unexpected {msg.type!r} frame")


@dataclass(eq=False)
class _Round:
    """The leader's query round on a serve loop: one connection per database."""

    leader: Tuple[int, int]
    open: int  # query connections not yet done
    watched: Sequence[DatabaseEndpoint]  # in-process endpoints: their shares end it too
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
        # (endpoint or round, its outgoing connections): shares, or queries
        self.requests: queue.SimpleQueue = queue.SimpleQueue()
        self._retries: List[Tuple[float, DatabaseEndpoint | _Round, _Connection]] = []
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
            owner, conns = self.requests.get()
            if isinstance(owner, _Round):
                self.rounds.append(owner)
            for conn in conns:
                self._connect(owner, conn)

    def _connect(self, owner: DatabaseEndpoint | _Round, conn: _Connection) -> None:
        """Open an outgoing connection; it is writable once connected or refused."""
        if conn.address is None:
            missing = TransportError(f"no address for database endpoint {conn.dest}")
            self._finish(owner, conn, missing)
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        key = self.selector.register(sock, selectors.EVENT_WRITE, (owner, conn))
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
                    # An outgoing connection: its connect may have been refused.
                    error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if error:
                        raise OSError(error, os.strerror(error))
                    # Queries wait at their database until its randomness is in.
                    patience = READY_TIMEOUT_SECONDS if conn.expected else 0.0
                    conn.deadline = time.monotonic() + SOCKET_TIMEOUT_SECONDS + patience
                self._write(key)
            if mask & selectors.EVENT_READ:
                if conn.dest is None:
                    owner._read_frames(sock, conn)
                else:
                    self._read_replies(key)
        except (ProtocolViolationError, TransportError, OSError) as exc:
            self._close(key, exc)

    def _write(self, key: selectors.SelectorKey) -> None:
        sock, conn = key.fileobj, key.data[1]
        del conn.out[: sock.send(conn.out)]
        if conn.out:
            return
        if conn.dest is not None and not conn.expected:
            # A share connection; an endpoint drops a closed peer's answers.
            sock.shutdown(socket.SHUT_WR)  # then wait for the receiver to close
        self.selector.modify(sock, selectors.EVENT_READ, key.data)

    def _read_replies(self, key: selectors.SelectorKey) -> None:
        """Read an outgoing connection until it has every reply it expects."""
        sock = key.fileobj
        owner, conn = key.data
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            if conn.expected:
                raise TransportError(f"database {conn.dest} closed before answering")
            self._close(key)  # the receiver closed it having read every frame
            return
        if not conn.expected:
            raise ProtocolViolationError(f"{conn.dest} wrote on a share connection")
        conn.buffer += chunk
        for frame in split_frames(conn.buffer):
            msg = decode_msg(frame)
            if not conn.expected or msg.origin != conn.dest or msg.dest != owner.leader:
                raise ProtocolViolationError(
                    f"unexpected answer from {msg.origin} to {msg.dest} on "
                    f"the connection to {conn.dest}"
                )
            owner.answers.append(msg)
            conn.expected -= 1
        if not conn.expected:
            self._close(key)

    def _tick(self) -> Optional[float]:
        """Retry refused connects, answer ready queries, enforce deadlines, end rounds.

        Returns how long the loop may block: until the next retry or deadline.
        """
        now = time.monotonic()
        due = [retry for retry in self._retries if retry[0] <= now]
        self._retries = [retry for retry in self._retries if retry[0] > now]
        for _, owner, conn in due:
            self._connect(owner, conn)
        times = [retry_at for retry_at, _, _ in self._retries]
        for key in list(self.selector.get_map().values()):
            if key.data is None or key.data[1] is None:
                continue
            owner, conn = key.data
            try:
                if conn.waiting and owner.state.ready:
                    answers = answer_all(owner.state, conn.waiting, owner.config.universe)
                    conn.waiting = []
                    for answer in answers:
                        conn.out += encode_msg(answer)
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
        for rnd in list(self.rounds):
            errors = _endpoint_errors(rnd.watched)
            if errors and rnd.error is None:
                rnd.error = TransportError(f"a database endpoint failed: {errors[0]}")
                rnd.error.__cause__ = errors[0]
            if rnd.error or not (rnd.open or any(ep._sending for ep in rnd.watched)):
                self._remove(rnd)
        for endpoint in [e for e in self.endpoints if e._stop.is_set()]:
            self._remove(endpoint)
        return max(0.0, min(times) - now) if times else None

    def _close(self, key: selectors.SelectorKey, cause=None) -> None:
        """Close a connection, failed when cause is given, which tells the peer.

        An outgoing connection that closes is done, or failed for cause.
        """
        self.selector.unregister(key.fileobj)
        key.fileobj.close()
        owner, conn = key.data
        if conn.dest is not None:
            self._finish(owner, conn, cause)

    def _finish(self, owner: DatabaseEndpoint | _Round, conn: _Connection, cause=None) -> None:
        """End an outgoing connection: done, or failed for cause.

        A refused connect is tried again shortly, until the connection's
        deadline: its receiver may not listen yet. A failed query connection
        fails its round.
        """
        retry_at = time.monotonic() + RETRY_PAUSE_SECONDS
        if isinstance(cause, ConnectionRefusedError) and retry_at < conn.deadline:
            self._retries.append((retry_at, owner, conn))
            return
        if isinstance(owner, _Round):
            if cause is not None and owner.error is None:
                kind = type(cause) if isinstance(cause, MppsiError) else TransportError
                owner.error = kind(f"queries to {conn.dest} not answered: {cause}")
                owner.error.__cause__ = cause
            owner.open -= 1
            return
        if cause is not None:
            sender = (owner.party_id, owner.database)
            owner.errors.append(
                TransportError(f"shares from {sender} to {conn.dest} not sent: {cause}")
            )
        owner._sending -= 1
        if not owner._sending:
            owner._shared.set()

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
    endpoints: Sequence[DatabaseEndpoint] = (),
) -> List[Message]:
    """Send every query and collect every answer on a serve loop.

    queries maps each database to its query frames and their count. The
    round runs on the in-process endpoints' loop, or on one of its own. It
    also waits for their shares, and fails at once, with their error as its
    cause, when one records one; a round that fails otherwise names their
    errors.
    """
    deadline = time.monotonic() + CONNECT_RETRY_SECONDS
    conns = [
        _Connection(frames, deadline, dest, addresses.get(dest), count)
        for dest, (frames, count) in sorted(queries.items())
    ]
    rnd = _Round(leader, len(conns), endpoints)
    loop = endpoints[0]._loop if endpoints else None
    if loop is None:
        loop = _ServeLoop()
        loop.start()
    loop.requests.put((rnd, conns))
    loop.wake()
    # Each connection ends by its deadlines within this time.
    limit = CONNECT_RETRY_SECONDS + READY_TIMEOUT_SECONDS + SOCKET_TIMEOUT_SECONDS
    if rnd.done.wait(limit) and rnd.error is None and not rnd.open:
        return rnd.answers
    error = rnd.error or TransportError("query round did not finish")
    errors = _endpoint_errors(endpoints)
    if errors and error.__cause__ not in errors:
        listed = "; ".join(map(str, errors))
        raise type(error)(f"{error} (endpoint errors: {listed})") from error
    raise error


def _endpoint_errors(endpoints: Sequence[DatabaseEndpoint]) -> List[TransportError]:
    return [error for endpoint in endpoints for error in endpoint.errors]


def spawn_endpoints(
    config: SessionConfig, policy: RandomnessPolicy = FAITHFUL
) -> List[DatabaseEndpoint]:
    """Start one in-process endpoint per client database (ephemeral ports)."""
    loop = _ServeLoop()
    endpoints = []
    for client in config.prepared[0].clients:
        for db in range(1, client.num_databases + 1):
            endpoint = DatabaseEndpoint(config, client.party_id, db, policy=policy)
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
    thread, and tears them down afterwards. The runner and endpoints built
    from this config object read one config.prepared, so the session elects
    and derives its session id once.
    """

    def exchange(setup, plan, query_plan, session_id):
        leader = (plan.leader_id, 0)
        queries = {
            dest: (bytearray().join(map(encode_msg, msgs)), len(msgs))
            for dest, msgs in query_plan.queries.items()
        }
        if endpoints is None and config.addresses:
            _check_external_addresses(setup, config.addresses)
            # The shares pass only between those endpoints.
            return (), _query_round(config.addresses, queries, leader)
        serving = endpoints
        if serving is None:
            serving = spawn_endpoints(config, policy)
        try:
            addresses = {(ep.party_id, ep.database): ep.address for ep in serving}
            # In-process endpoints start their randomness traffic only now, so
            # the leader's work above does not compete with theirs for the GIL.
            for ep in serving:
                ep.begin_sharing(addresses)
            answers = _query_round(addresses, queries, leader, serving)
            shares = [share for ep in serving if ep.state for share in ep.state.shares()]
            return sorted(shares, key=share_order), answers
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
