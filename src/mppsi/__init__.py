"""Information-theoretic multi-party private set intersection.

A leader party privately retrieves, from every other party's replicated
databases, exactly enough masked linear combinations to decide which of its
own elements everyone holds, and nothing more. The package provides the
protocol library, a deterministic in-memory simulator, a networked runner
over TCP loopback endpoints, and an exact-enumeration auditor for the
reliability and privacy guarantees.
"""

from .config import SessionConfig, load_config, parse_config
from .errors import (
    AuditPartError,
    BoundExceededError,
    ConfigError,
    InfeasibleError,
    MppsiError,
    ProtocolViolationError,
    TransportError,
)
from .field import PrimeField, select_field_size
from .leader import (
    CostTable,
    IntersectionResult,
    PartitionPlan,
    QueryPlan,
    decode,
    download_cost,
    generate_queries,
    make_partition_plan,
)
from .model import PartyProfile, Universe, brute_force_intersection
from .randomness import RandomnessBundle, RandomnessPolicy, build_bundle
from .session import SessionTranscript, run_memory_session, run_session

__all__ = [
    "AuditPartError",
    "BoundExceededError",
    "ConfigError",
    "CostTable",
    "InfeasibleError",
    "IntersectionResult",
    "MppsiError",
    "PartitionPlan",
    "PartyProfile",
    "PrimeField",
    "ProtocolViolationError",
    "QueryPlan",
    "RandomnessBundle",
    "RandomnessPolicy",
    "SessionConfig",
    "SessionTranscript",
    "TransportError",
    "Universe",
    "brute_force_intersection",
    "decode",
    "download_cost",
    "generate_queries",
    "load_config",
    "make_partition_plan",
    "parse_config",
    "run_memory_session",
    "run_session",
    "select_field_size",
]

__version__ = "0.1.0"
