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
    """One randomness-phase message between client databases."""

    kind: str  # "t_share" | "c_share"
    origin: Tuple[int, int]
    dest: Tuple[int, int]
    position: Optional[int]
    value: int


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
        except (KeyError, IndexError):
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


def gen_individual_free(
    plan: PartitionPlan,
    field: PrimeField,
    seed: int,
    policy: RandomnessPolicy = FAITHFUL,
) -> Tuple[Dict[Tuple[int, int], int], List[ShareMessage]]:
    """Free individual values for every client except the correlating one.

    Returns the values keyed by (client, position) plus the share messages
    that carry them to the correlating client's matching databases.
    """
    corr = correlating_client(plan.client_ids)
    values: Dict[Tuple[int, int], int] = {}
    messages: List[ShareMessage] = []
    for client_id in free_clients(plan.client_ids):
        for position in range(1, plan.set_size + 1):
            partition, database = plan.position_location(client_id, position)
            if policy.zero_individual:
                value = 0
            else:
                value = draw_value(seed, field.modulus, "t", client_id, database, partition)
            values[(client_id, position)] = value
            _, dest_db = plan.position_location(corr, position)
            messages.append(
                ShareMessage(
                    kind="t_share",
                    origin=(client_id, database),
                    dest=(corr, dest_db),
                    position=position,
                    value=value,
                )
            )
    return values, messages


def correlate(
    free_values: Dict[Tuple[int, int], int],
    plan: PartitionPlan,
    num_parties: int,
    field: PrimeField,
    policy: RandomnessPolicy = FAITHFUL,
) -> Dict[int, int]:
    """Values for the correlating client, one per leader-set position.

    Completes each position's sum across clients to L - (M - 1). With a
    single client (two parties) the sum is empty and the value is L - 1.
    """
    corr = correlating_client(plan.client_ids)
    others = free_clients(plan.client_ids)
    if policy.zero_individual:
        return {k: 0 for k in range(1, plan.set_size + 1)}
    modulus = field.modulus
    target = modulus - (num_parties - 1) + policy.correlation_offset
    result: Dict[int, int] = {}
    for position in range(1, plan.set_size + 1):
        total = 0
        for client_id in others:
            key = (client_id, position)
            if key not in free_values:
                raise ProtocolViolationError(
                    f"missing randomness share from client {client_id} "
                    f"for position {position}"
                )
            total += free_values[key]
        result[position] = (target - total) % modulus
    assert corr not in others
    return result


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
    """Assemble the full randomness bundle and its sharing traffic."""
    num_parties = len(clients) + 1
    corr = correlating_client(plan.client_ids)
    bundle = RandomnessBundle()

    for client_id in plan.client_ids:
        bundle.local[client_id] = gen_local(
            client_id, plan.eta[client_id], field, seed, policy
        )
        # Database 1 never adds individual randomness.
        bundle.individual[(client_id, 1)] = {
            ell: 0 for ell in range(1, plan.eta[client_id] + 1)
        }

    free_values, messages = gen_individual_free(plan, field, seed, policy)
    corr_values = correlate(free_values, plan, num_parties, field, policy)

    for (client_id, position), value in free_values.items():
        partition, database = plan.position_location(client_id, position)
        bundle.individual.setdefault((client_id, database), {})[partition] = value
    for position, value in corr_values.items():
        partition, database = plan.position_location(corr, position)
        bundle.individual.setdefault((corr, database), {})[partition] = value

    bundle.c = gen_global(field, seed, policy)
    origin_client = min(plan.client_ids)
    for client in sorted(clients, key=lambda p: p.party_id):
        for database in range(1, client.num_databases + 1):
            if (client.party_id, database) == (origin_client, 1):
                continue
            messages.append(
                ShareMessage(
                    kind="c_share",
                    origin=(origin_client, 1),
                    dest=(client.party_id, database),
                    position=None,
                    value=bundle.c,
                )
            )
    return bundle, messages
