"""Generation and sharing of the three client-side randomness tiers.

Before any query is sent, the client parties set up:

* a local vector per client (one slot per partition), shared by all of that
  client's databases and added to every answer;
* an individual value per targeted answer, zero at database 1, drawn freely
  by every client except the last one, and completed at the last client so
  that for each leader-set position the values across clients sum to
  L - (M - 1);
* a single global nonzero multiplier applied to every answer.

The free individual values travel to the last client's databases as share
messages keyed by leader-set position (1..R). Positions, not element ids,
cross party boundaries: clients only ever learn the public set size.

Each client database draws, sends and installs its own values in a
database.DatabaseState. build_bundle runs the phase in memory by routing
shares between one such state per client database.

A RandomnessPolicy can deliberately break each tier; the audit module uses
these mutations as negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ProtocolViolationError
from .field import PrimeField
from .leader import PartitionPlan
from .model import PartyProfile
from .seeding import draw_nonzero, draw_value


@dataclass(frozen=True)
class RandomnessPolicy:
    """Scheme mutations for negative-control audits. Defaults are faithful."""

    zero_local: bool = False
    zero_individual: bool = False
    correlation_offset: int = 0
    fixed_global: Optional[int] = None


FAITHFUL = RandomnessPolicy()


@dataclass(frozen=True)
class ShareMessage:
    """One randomness-phase message between client databases.

    A well-formed share holds one residue in values; database states reject
    any other.
    """

    kind: str  # "t_share" | "c_share"
    origin: Tuple[int, int]
    dest: Tuple[int, int]
    position: Optional[int]
    values: Tuple[int, ...]

    def sort_key(self) -> tuple:
        """The transcript's order: t shares, then c shares, by origin, dest, position."""
        return (self.kind != "t_share", self.origin, self.dest, self.position or 0)


@dataclass
class RandomnessBundle:
    """All randomness installed at client databases for one session.

    individual[(client, db)] maps a partition slot to the value that database
    adds to its targeted answer for that partition; database 1 carries
    explicit zeros. All values are residues in [0, L).
    """

    local: Dict[int, List[int]] = dc_field(default_factory=dict)
    individual: Dict[Tuple[int, int], Dict[int, int]] = dc_field(default_factory=dict)
    c: Optional[int] = None

    def local_slot(self, client_id: int, partition: int) -> int:
        try:
            return self.local[client_id][partition - 1]
        except (KeyError, IndexError, TypeError):  # TypeError: a query without a partition
            raise ProtocolViolationError(
                f"no local randomness slot for client {client_id} partition {partition}"
            )

    def individual_slot(self, client_id: int, database: int, partition: int) -> int:
        try:
            return self.individual[(client_id, database)][partition]
        except KeyError:
            raise ProtocolViolationError(
                f"no individual randomness for client {client_id} "
                f"database {database} partition {partition}"
            )


def correlating_client(client_ids: Sequence[int]) -> int:
    """The client that completes the correlation: highest client id."""
    return max(client_ids)


def free_clients(client_ids: Sequence[int]) -> List[int]:
    corr = correlating_client(client_ids)
    return sorted(i for i in client_ids if i != corr)


def gen_local(
    client_id: int,
    eta: int,
    field: PrimeField,
    seed: int,
    policy: RandomnessPolicy = FAITHFUL,
) -> List[int]:
    """The client's local vector: one uniform slot per partition."""
    if eta < 1:
        raise ValueError(f"local vector needs at least one slot, got {eta}")
    if policy.zero_local:
        return [0] * eta
    return [
        draw_value(seed, field.modulus, "s", client_id, ell)
        for ell in range(1, eta + 1)
    ]


def gen_global(
    field: PrimeField, seed: int, policy: RandomnessPolicy = FAITHFUL
) -> int:
    """The session-wide nonzero answer multiplier."""
    if policy.fixed_global is not None:
        value = policy.fixed_global % field.modulus
        if value == 0:
            raise ValueError("global multiplier must be nonzero")
        return value
    return draw_nonzero(seed, field.modulus, "c")


def build_bundle(
    plan: PartitionPlan,
    clients: Sequence[PartyProfile],
    field: PrimeField,
    seed: int,
    policy: RandomnessPolicy = FAITHFUL,
) -> Tuple[RandomnessBundle, List[ShareMessage]]:
    """Run the randomness phase in memory: the router between database states.

    Builds one state per client database, delivers every share they send in
    the transcript's canonical order, and merges what each state installed
    into one bundle. Returns the bundle and the shares in that order.
    """
    # The state module builds on this one's tiers and policy.
    from .database import DatabaseState

    states = {
        (client.party_id, db): DatabaseState(plan.shape, client, db, field, seed, policy)
        for client in clients
        for db in range(1, client.num_databases + 1)
    }
    shares = sorted(
        (share for state in states.values() for share in state.shares()),
        key=ShareMessage.sort_key,
    )
    for share in shares:
        states[share.dest].receive(share)
    bundle = RandomnessBundle()
    for state in states.values():
        bundle.local.update(state.bundle.local)
        bundle.individual.update(state.bundle.individual)
    bundle.c = states[plan.client_ids[0], 1].bundle.c
    return bundle, shares
