"""One client database's protocol state, with no I/O.

A DatabaseState is built from what one client database is entitled to: the
public plan shape, its party's own set and its own labeled draws. Its
constructor is where a database's randomness is drawn, each tier as one
labeled stream, side by side: its client's local vector ("s/<client>"), its
individual values when it is a free-client database holding a position
("t/<client>/<database>", one slot per partition), and the multiplier at
the database that sends it ("c"). It runs only the faithful scheme: the
negative-control mutations are the audit checks'. It never touches a
socket or a clock. It lists the shares it sends, receives one share, and
reports whether it is ready; client.answer_all answers a batch of queries
from it. Shares, queries and answers are all wire.Message values. Both
transports drive these states: randomness.build_bundle routes shares
between them in memory, and each net.DatabaseEndpoint keeps one behind its
serve loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .errors import ProtocolViolationError
from .field import PrimeField
from .leader import PlanShape
from .model import PartyProfile
from .randomness import completion, correlating_client, free_clients
from .seeding import draw_nonzero, draw_vector
from .wire import Message


class DatabaseState:
    """The randomness and answering state of one client database.

    It holds only this database's own values, all residues in [0, L):
    local[partition - 1] is its client's local value for that partition;
    individual[partition] is the value it adds to its targeted answer for
    that partition, only at the partitions of its own positions (none at
    database 1, which gets no targeted query); c is the global multiplier
    once it has one. tags holds the (partition, target position) pair of
    each targeted query it answers. Both transports answer from it.
    """

    def __init__(
        self,
        shape: PlanShape,
        profile: PartyProfile,
        database: int,
        field: PrimeField,
        seed: int,
        session_id: str,
    ):
        party_id = profile.party_id
        self.session_id = session_id
        self.shape = shape
        self.profile = profile
        self.address = (party_id, database)
        self.field = field
        self.correlator = correlating_client(shape.client_ids)
        self.free = free_clients(shape.client_ids)
        self.c_origin = (shape.client_ids[0], 1)
        self.positions = shape.positions_of_database(party_id, database)
        self.tags = frozenset((shape.position_location(party_id, k)[0], k) for k in self.positions)
        eta = shape.eta[party_id]
        self.local: List[int] = list(draw_vector(seed, field.modulus, eta, "s", party_id))
        self.individual: Dict[int, int] = {}
        self.c: Optional[int] = (
            draw_nonzero(seed, field.modulus, "c") if self.address == self.c_origin else None
        )
        # At the correlating client: position -> {free client: its share}.
        self._received: Dict[int, Dict[int, int]] = {}
        if party_id == self.correlator:
            self._received = {position: {} for position in self.positions}
        elif self.positions:
            # One labeled vector per free database, indexed by partition.
            draws = draw_vector(seed, field.modulus, eta, "t", party_id, database)
            for partition, _ in self.tags:
                self.individual[partition] = draws[partition - 1]
        self._missing = len(self._received) * len(self.free)
        self._complete()

    @property
    def ready(self) -> bool:
        """Whether every value this database's answers need is installed."""
        return self.c is not None and len(self.individual) == len(self.positions)

    def shares(self) -> List[Message]:
        """The randomness-phase messages this database sends."""
        party_id = self.address[0]
        sent = []  # (type, dest, position, value)
        for position in self.positions if party_id != self.correlator else ():
            dest = (self.correlator, self.shape.position_location(self.correlator, position)[1])
            value = self.individual[self.shape.position_location(party_id, position)[0]]
            sent.append(("t_share", dest, position, value))
        if self.address == self.c_origin:
            sent.extend(
                ("c_share", (client, db), None, self.c)
                for client in self.shape.client_ids
                for db in range(1, self.shape.databases[client] + 1)
                if (client, db) != self.address
            )
        # Fields in order (type, session_id, origin, dest, partition, target,
        # values): keywords cost about twice as much per message.
        return [
            Message(kind, self.session_id, self.address, dest, None, position, bytes((value,)))
            for kind, dest, position, value in sent
        ]

    def receive(self, share: Message) -> None:
        """Install one share addressed to this database, or reject it whole.

        A share must carry exactly one residue below L. The multiplier is
        taken only from c_origin and only once; an individual value only for
        a position (the share's target) this database completes, from the
        free-client database holding it.
        """
        modulus = self.field.modulus
        if len(share.values) != 1 or not 0 <= share.values[0] < modulus:
            raise ProtocolViolationError(
                f"{share.type} must carry one residue below {modulus}, "
                f"got {list(share.values)}"
            )
        (value,) = share.values
        if share.type == "c_share":
            if share.origin != self.c_origin:
                raise ProtocolViolationError(
                    f"global multiplier from {share.origin}, expected {self.c_origin}"
                )
            if self.c is not None:
                raise ProtocolViolationError("global multiplier already installed")
            if value == 0:
                raise ProtocolViolationError("global multiplier must be nonzero")
            self.c = value
        elif share.type == "t_share":
            received = self._received.get(share.target)
            if received is None:
                raise ProtocolViolationError(
                    f"share for position {share.target} not owned by database {self.address}"
                )
            sender = share.origin[0]
            if sender not in self.free or share.origin != (
                sender, self.shape.position_location(sender, share.target)[1]
            ):
                raise ProtocolViolationError(
                    f"share for position {share.target} from {share.origin}"
                )
            if sender in received:
                raise ProtocolViolationError(
                    f"duplicate share for position {share.target} from {share.origin}"
                )
            received[sender] = value
            self._missing -= 1
            self._complete()
        else:
            raise ProtocolViolationError(f"unexpected message type {share.type!r}")

    def _complete(self) -> None:
        """Fill in the correlating client's values once every free share is in."""
        if self._missing:
            return
        num_clients = len(self.shape.client_ids)
        for position, received in self._received.items():
            partition, _ = self.shape.position_location(self.correlator, position)
            self.individual[partition] = completion(
                received.values(), self.field.modulus, num_clients
            )
