"""Session configuration: JSON schema, parsing, validation.

A config file is a UTF-8 JSON object:

    {
      "universe_size": 4,
      "parties": [
        {"id": 1, "databases": 3, "set": [1, 2]},
        {"id": 2, "databases": 3, "set": [1, 3]},
        {"id": 3, "databases": 3, "set": [1, 4]}
      ],
      "leader": 3,            // optional: force this party to lead
      "seed": 7,              // 64-bit unsigned
      "transport": "memory",  // optional: "memory" (default) or "net"
      "addresses": {"1:1": "127.0.0.1:9101", ...}   // optional, net only
    }

Party ids must be 1..M without gaps. Set elements must be unique integers
inside the universe. Validation failures carry field-level diagnostics.
Each set and the seed are private inputs; SessionConfig.public is the rest.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from . import protocol
from .errors import ConfigError
from .leader import CostTable
from .model import PartyProfile, PublicParameters, Universe
from .wire import MAX_FRAME_BYTES, max_query_frame_bytes

TRANSPORTS = ("memory", "net")
MAX_SEED = (1 << 64) - 1

_TOP_FIELDS = {"universe_size", "parties", "leader", "seed", "transport", "addresses"}
_PARTY_FIELDS = {"id", "databases", "set"}


@dataclass(frozen=True)
class SessionConfig:
    """A validated session description."""

    universe_size: int
    parties: Tuple[PartyProfile, ...]
    seed: int
    leader_override: Optional[int] = None
    transport: str = "memory"
    addresses: Dict[Tuple[int, int], Tuple[str, int]] = dc_field(default_factory=dict, hash=False)

    @property
    def universe(self) -> Universe:
        return Universe(self.universe_size)

    @property
    def public(self) -> PublicParameters:
        """The config's public parameters: all of it but the sets and the seed."""
        return PublicParameters.of(
            self.parties, self.universe, self.leader_override, self.addresses
        )

    @functools.cached_property
    def prepared(self) -> Tuple[PublicParameters, CostTable, str]:
        """protocol.prepare_session of the public parameters, and
        protocol.make_session_id of the config, once per config object."""
        return (*protocol.prepare_session(self.public), protocol.make_session_id(self))


def _require_int(value, what: str, minimum: int, maximum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{what} must be <= {maximum}, got {value}")
    return value


def _parse_party(raw, index: int, universe_size: int) -> PartyProfile:
    where = f"parties[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _PARTY_FIELDS
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = _PARTY_FIELDS - set(raw)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    party_id = _require_int(raw["id"], f"{where}.id", 1)
    databases = _require_int(raw["databases"], f"{where}.databases", 1)
    elements_raw = raw["set"]
    if not isinstance(elements_raw, list):
        raise ConfigError(f"{where}.set must be a list")
    elements: List[int] = []
    for pos, elem in enumerate(elements_raw):
        value = _require_int(elem, f"{where}.set[{pos}]", 1, universe_size)
        elements.append(value)
    if len(set(elements)) != len(elements):
        dupes = sorted({e for e in elements if elements.count(e) > 1})
        raise ConfigError(f"{where}.set contains duplicate elements {dupes}")
    return PartyProfile(party_id=party_id, num_databases=databases, data_set=frozenset(elements))


def _decimal(text: str) -> bool:
    """Whether text is plain ASCII decimal: no sign, space, underscore or other digits."""
    return text.isascii() and text.isdigit()


def _parse_addresses(raw, parties) -> Dict[Tuple[int, int], Tuple[str, int]]:
    if not isinstance(raw, dict):
        raise ConfigError("addresses must be an object of 'party:db' -> 'host:port'")
    databases = {p.party_id: p.num_databases for p in parties}
    result: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for key, value in raw.items():
        party_str, _, db_str = str(key).partition(":")
        if not (_decimal(party_str) and _decimal(db_str)):
            raise ConfigError(f"addresses key {key!r} is not 'party:db' in decimal")
        endpoint = (int(party_str), int(db_str))
        if not 1 <= endpoint[1] <= databases.get(endpoint[0], 0):
            raise ConfigError(f"addresses key {key!r} names no configured database")
        if endpoint in result:
            raise ConfigError(f"addresses key {key!r} names database {endpoint} again")
        if not isinstance(value, str) or ":" not in value:
            raise ConfigError(f"addresses[{key!r}] must be 'host:port', got {value!r}")
        host, _, port_str = value.rpartition(":")
        if not host:
            # An empty host would bind every interface.
            raise ConfigError(f"addresses[{key!r}]: empty host in {value!r}")
        if not _decimal(port_str):
            raise ConfigError(f"addresses[{key!r}]: bad port {port_str!r}")
        port = int(port_str)
        if not 0 < port < 65536:
            raise ConfigError(f"addresses[{key!r}]: port {port} out of range")
        result[endpoint] = (host, port)
    return result


def config_from_dict(data: dict) -> SessionConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for required in ("universe_size", "parties", "seed"):
        if required not in data:
            raise ConfigError(f"missing config field: {required}")
    universe_size = _require_int(data["universe_size"], "universe_size", 1)
    seed = _require_int(data["seed"], "seed", 0, MAX_SEED)
    if not isinstance(data["parties"], list) or len(data["parties"]) < 1:
        raise ConfigError("parties must be a nonempty list")
    parties = tuple(
        _parse_party(raw, i, universe_size) for i, raw in enumerate(data["parties"])
    )
    ids = sorted(p.party_id for p in parties)
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate party ids: {ids}")
    if ids != list(range(1, len(ids) + 1)):
        raise ConfigError(f"party ids must be contiguous from 1, got {ids}")
    leader = data.get("leader")
    if leader is not None:
        leader = _require_int(leader, "leader", 1)
        if leader not in set(ids):
            raise ConfigError(f"leader {leader} is not a configured party")
    transport = data.get("transport", "memory")
    if transport not in TRANSPORTS:
        raise ConfigError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    addresses = _parse_addresses(data["addresses"], parties) if "addresses" in data else {}
    # Every message is a frame, in a transcript file as on the wire.
    if len(parties) > 1:
        frame = max_query_frame_bytes(universe_size)
        if frame > MAX_FRAME_BYTES:
            raise ConfigError(
                f"universe_size {universe_size} is too large: a query frame takes "
                f"{frame} bytes, above the {MAX_FRAME_BYTES}-byte frame limit"
            )
    return SessionConfig(
        universe_size=universe_size,
        parties=tuple(sorted(parties, key=lambda p: p.party_id)),
        seed=seed,
        leader_override=leader,
        transport=transport,
        addresses=addresses,
    )


def _object(pairs) -> dict:
    """One JSON object as a dict; a key written twice in it is an error,
    where json.loads alone would keep the last value."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config key {key!r} is written twice in one object")
        data[key] = value
    return data


def parse_config(text) -> SessionConfig:
    """Parse a config from bytes or str, with positional JSON diagnostics."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return config_from_dict(data)


def load_config(path: str) -> SessionConfig:
    try:
        with open(path, "rb") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
