"""Generation and sharing of the three client-side randomness tiers.

Before any query is sent, the client parties set up:

* a local vector per client (one slot per partition), shared by all of that
  client's databases and added to every answer: one labeled vector draw,
  "s/<client>", that each of the client's databases makes for itself;
* an individual value per targeted answer, so none at database 1, which
  gets no targeted query: drawn freely by every client except the last
  one, and completed at the last client so that for each leader-set
  position the values across clients sum to L - (M - 1); a free database
  draws its values as one labeled vector, "t/<client>/<database>", indexed
  by partition;
* a single global nonzero multiplier applied to every answer, labeled "c".

The free individual values travel to the last client's databases as
t_share wire.Message values whose target is a leader-set position (1..R),
and the multiplier as c_share messages. Positions, not element ids, cross
party boundaries: clients only ever learn the public set size.

Each client database draws, sends and installs its own values in a
database.DatabaseState, the one object that holds them and answers from
them: its constructor makes the three tier draws side by side.
build_bundle runs the phase in memory by routing shares between one such
state per client database; share_order is the transcript's order of the
shares. completion is the one place the correlating client's value is
computed; the auditor calls it too.

Sessions run only the faithful scheme. A RandomnessPolicy names the scheme
mutations that the audit module's negative controls run; completion takes
one, FAITHFUL by default, and nothing on the session path passes another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .field import PrimeField
from .leader import PartitionPlan
from .model import PartyProfile
from .wire import Message

if TYPE_CHECKING:
    from .database import DatabaseState


@dataclass(frozen=True)
class RandomnessPolicy:
    """Scheme mutations for negative-control audits. Defaults are faithful."""

    zero_local: bool = False
    zero_individual: bool = False
    correlation_offset: int = 0
    fixed_global: Optional[int] = None


FAITHFUL = RandomnessPolicy()


def correlating_client(client_ids: Sequence[int]) -> int:
    """The client that completes the correlation: highest client id."""
    return max(client_ids)


def free_clients(client_ids: Sequence[int]) -> List[int]:
    corr = correlating_client(client_ids)
    return sorted(i for i in client_ids if i != corr)


def completion(
    free_values: Iterable[int], modulus: int, num_clients: int, policy: RandomnessPolicy = FAITHFUL
) -> int:
    """The correlating client's individual value for one leader-set position.

    Given the free clients' values for that position, it makes the position's
    values sum to L - num_clients, that is L - (M - 1), shifted by the
    policy's correlation offset; zero under zero_individual.
    """
    if policy.zero_individual:
        return 0
    return (modulus - num_clients + policy.correlation_offset - sum(free_values)) % modulus


def share_order(share: Message) -> tuple:
    """The transcript's order of shares: t shares, then c shares, by origin, dest, position."""
    return (share.type != "t_share", share.origin, share.dest, share.target or 0)


def build_bundle(
    plan: PartitionPlan,
    clients: Sequence[PartyProfile],
    field: PrimeField,
    seed: int,
    session_id: str,
) -> Tuple[Dict[Tuple[int, int], DatabaseState], List[Message]]:
    """Run the randomness phase in memory: the router between database states.

    Builds one state per client database and delivers every share they send
    in share_order. Returns the states, keyed by their (client, database)
    address, and the shares in that order.
    """
    # The state module builds on this one's completion and client split.
    from .database import DatabaseState

    states = {
        (client.party_id, db): DatabaseState(
            plan.shape, client, db, field, seed, session_id
        )
        for client in clients
        for db in range(1, client.num_databases + 1)
    }
    shares = sorted(
        (share for state in states.values() for share in state.shares()),
        key=share_order,
    )
    for share in shares:
        states[share.dest].receive(share)
    return states, shares
