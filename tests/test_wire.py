"""Wire format: binary frames, and the JSON message bodies that transcripts load."""

import json
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mppsi.errors import ProtocolViolationError
from mppsi.leader import CostTable, IntersectionResult
from mppsi.session import SessionTranscript, load_transcript, run_memory_session
from mppsi.wire import (
    HEADER,
    MAX_FRAME_BYTES,
    MAX_TAG,
    PHASE_BY_TYPE,
    SESSION_ID_CHARS,
    Message,
    decode_msg,
    encode_msg,
    max_query_frame_bytes,
    render_body,
    render_values,
    split_frames,
)
from test_golden import eleven_config, wide_config

ENDPOINT = st.tuples(st.integers(0, 9), st.integers(0, 9))

MESSAGES = st.one_of(
    st.builds(
        Message,
        type=st.just("query"),
        session_id=st.text(min_size=1, max_size=12, alphabet="abcdef0123456789"),
        phase=st.just("query"),
        origin=ENDPOINT,
        dest=ENDPOINT,
        partition=st.integers(1, 5),
        target=st.one_of(st.none(), st.integers(1, 8)),
        values=st.lists(st.integers(0, 6), max_size=8).map(bytes),
    ),
    st.builds(
        Message,
        type=st.just("answer"),
        session_id=st.just("feed"),
        phase=st.just("answer"),
        origin=ENDPOINT,
        dest=ENDPOINT,
        partition=st.integers(1, 5),
        target=st.one_of(st.none(), st.integers(1, 8)),
        values=st.lists(st.integers(0, 6), min_size=1, max_size=1).map(bytes),
    ),
    st.builds(
        Message,
        type=st.just("t_share"),
        session_id=st.just("beef"),
        phase=st.just("randomness"),
        origin=ENDPOINT,
        dest=ENDPOINT,
        partition=st.none(),
        target=st.integers(1, 8),
        values=st.lists(st.integers(0, 6), min_size=1, max_size=1).map(bytes),
    ),
)


# Arbitrary text, with quotes, backslashes, control and non-ASCII characters
# drawn often.
ANY_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\x00\x7f\u00e9\u2603\U0001f600'), st.characters()),
    min_size=1,
    max_size=12,
)
TAG = st.one_of(st.none(), st.integers(1, 10**6))
ORACLE_MESSAGES = st.builds(
    lambda kind, **fields: Message(type=kind[0], phase=kind[1], **fields),
    kind=st.sampled_from(sorted(PHASE_BY_TYPE.items())),
    session_id=ANY_TEXT,
    origin=st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
    dest=st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
    partition=TAG,
    target=TAG,
    # Single-digit residues, two-digit ones (L >= 11) and every byte value.
    values=st.one_of(
        st.lists(st.integers(0, 9), max_size=40),
        st.lists(st.one_of(st.integers(0, 12), st.integers(0, 255)), max_size=40),
    ).map(bytes),
)

# Every message a session can send: a lowercase hex session id, endpoints and
# tags below 10^9, and residues anywhere in 0..255.
BELOW_1E9 = st.integers(0, 10**9 - 1)
CANONICAL_MESSAGES = st.builds(
    lambda kind, **fields: Message(type=kind[0], phase=kind[1], **fields),
    kind=st.sampled_from(sorted(PHASE_BY_TYPE.items())),
    session_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=SESSION_ID_CHARS),
    origin=st.tuples(BELOW_1E9, BELOW_1E9),
    dest=st.tuples(BELOW_1E9, BELOW_1E9),
    partition=st.one_of(st.none(), st.integers(1, 10**9 - 1)),
    target=st.one_of(st.none(), st.integers(1, 10**9 - 1)),
    values=st.one_of(st.lists(st.integers(0, 9), max_size=40).map(bytes), st.binary(max_size=40)),
)


def reference_body(msg: Message) -> str:
    return json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":"))


def reference_endpoint(raw, name: str) -> tuple:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in raw)
    ):
        raise ProtocolViolationError(f"bad {name} endpoint: {raw!r}")
    return (raw[0], raw[1])


def reference_message(data) -> Message:
    """The message a parsed JSON payload describes, every field checked."""
    if not isinstance(data, dict):
        raise ProtocolViolationError(f"payload must be an object, got {type(data).__name__}")
    if set(data) != set(Message._fields):
        raise ProtocolViolationError(f"message fields {sorted(data)}")
    msg_type = data["type"]
    if msg_type not in PHASE_BY_TYPE or data["phase"] != PHASE_BY_TYPE[msg_type]:
        raise ProtocolViolationError(f"type {msg_type!r} with phase {data['phase']!r}")
    if not isinstance(data["session_id"], str) or not data["session_id"]:
        raise ProtocolViolationError("session_id must be a nonempty string")
    for name in ("partition", "target"):
        value = data[name]
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ProtocolViolationError(f"{name} must be a positive integer or null")
    values = data["values"]
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ProtocolViolationError("values must be a list of integers in 0..255")
    try:
        residues = bytes(values)
    except ValueError:
        raise ProtocolViolationError("values must be a list of integers in 0..255") from None
    return Message(
        type=msg_type,
        session_id=data["session_id"],
        phase=data["phase"],
        origin=reference_endpoint(data["origin"], "origin"),
        dest=reference_endpoint(data["dest"], "dest"),
        partition=data["partition"],
        target=data["target"],
        values=residues,
    )


def reference_decode(body: bytes) -> Message:
    """The JSON oracle: any JSON spelling of a valid message body, through json.loads."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolViolationError(f"undecodable message body: {exc}") from exc
    return reference_message(data)


def reference_transcript_layout(transcript: SessionTranscript) -> dict:
    """The dict whose sorted-key JSON a transcript file has always been."""
    return {
        "session_id": transcript.session_id,
        "leader": transcript.leader_id,
        "cost_table": {
            str(pid): cost for pid, cost in sorted(transcript.cost_table.costs.items())
        },
        "messages": [m.to_dict() for m in transcript.messages],
        "result": {
            "decoded": sorted(transcript.result.decoded),
            "indicators": {
                str(elem): value for elem, value in sorted(transcript.result.indicators.items())
            },
            "download_cost_actual": transcript.result.download_cost_actual,
        },
    }


def reference_serialized(transcript: SessionTranscript) -> bytes:
    """The sorted-key JSON line of a transcript's layout, as bytes."""
    text = json.dumps(
        reference_transcript_layout(transcript), sort_keys=True, separators=(",", ":")
    )
    return (text + "\n").encode("ascii")


TRANSCRIPTS = st.builds(
    SessionTranscript,
    session_id=ANY_TEXT,
    leader_id=st.integers(1, 20),
    cost_table=st.dictionaries(
        st.integers(1, 20), st.one_of(st.none(), st.integers(0, 10**6))
    ).map(CostTable),
    messages=st.lists(ORACLE_MESSAGES, max_size=6).map(tuple),
    result=st.builds(
        IntersectionResult,
        decoded=st.frozensets(st.integers(1, 50)),
        indicators=st.dictionaries(st.integers(1, 50), st.integers(0, 12)),
        download_cost_actual=st.integers(0, 100),
    ),
)


EMPTY_RESULT = IntersectionResult(decoded=frozenset(), indicators={}, download_cost_actual=0)


def transcript_of(body: bytes, session_id: str = "0a1b", answers: int = 0) -> bytes:
    """A one-message transcript file around body, its head and tail agreeing with it.

    The cost table {"1":0,"2":null}, leader 1, and an empty result whose
    download cost is the body's answer count; session_id is the body's own.
    """
    result = {"decoded": [], "download_cost_actual": answers, "indicators": {}}
    tail = json.dumps(
        {"result": result, "session_id": session_id}, sort_keys=True, separators=(",", ":")
    )
    return (
        b'{"cost_table":{"1":0,"2":null},"leader":1,"messages":['
        + body
        + b"],"
        + tail[1:].encode("ascii")
        + b"\n"
    )


def agreeing(msg: Message) -> tuple:
    """The session id and answer count of a transcript that agrees with msg."""
    return msg.session_id, int(msg.type == "answer")


def frame_with_body(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def raw_frame(code=3, session_id=b"0a1b", tags=(3, 0, 1, 2, 1, 0), values=b"\0\1\2", id_len=None):
    """A frame laid out field by field, whether or not it is valid."""
    id_len = len(session_id) if id_len is None else id_len
    return frame_with_body(
        bytes((code, id_len)) + session_id + struct.pack(">6I", *tags) + values
    )


def frame_size(msg: Message) -> int:
    """The documented frame size: length, type and id length, id, six tags, values."""
    return 4 + 2 + len(msg.session_id) + 24 + len(msg.values)


# Frames near the layout: valid and invalid type codes, ids of any bytes and
# declared lengths, tags around the limits, and cuts anywhere.
TAG_WORDS = st.one_of(
    st.integers(0, 9), st.sampled_from([MAX_TAG, MAX_TAG + 1]), st.integers(0, 2**32 - 1)
)


@st.composite
def near_frames(draw):
    session_id = draw(
        st.one_of(
            st.text(alphabet="0123456789abcdef", max_size=SESSION_ID_CHARS).map(str.encode),
            st.binary(max_size=SESSION_ID_CHARS),
        )
    )
    frame = raw_frame(
        code=draw(st.integers(0, 6)),
        session_id=session_id,
        tags=draw(
            st.one_of(
                st.lists(st.integers(0, MAX_TAG), min_size=6, max_size=6),
                st.lists(TAG_WORDS, min_size=6, max_size=6),
            )
        ),
        values=draw(st.binary(max_size=40)),
        id_len=draw(st.one_of(st.none(), st.integers(0, 255))),
    )
    cut = draw(st.one_of(st.none(), st.integers(HEADER.size, len(frame))))
    return frame if cut is None else frame_with_body(frame[HEADER.size : cut])


class TestRoundTrip:
    @given(MESSAGES)
    def test_encode_decode_identity(self, msg):
        assert decode_msg(encode_msg(msg)) == msg

    @given(CANONICAL_MESSAGES)
    def test_every_message_a_session_can_send_round_trips(self, msg):
        frame = encode_msg(msg)
        assert len(frame) == frame_size(msg)
        assert frame.endswith(msg.values)
        assert decode_msg(frame) == msg

    @settings(max_examples=400)
    @given(st.one_of(CANONICAL_MESSAGES.map(encode_msg), near_frames()))
    def test_every_accepted_frame_is_the_one_frame_of_its_message(self, frame):
        result = outcome(decode_msg, frame)
        if result == ("rejected",):
            return
        msg = result[1]
        assert type(msg.values) is bytes
        assert encode_msg(msg) == frame
        # Every message a frame carries can be written to a transcript and loaded.
        assert loaded(render_body(msg), *agreeing(msg)) == msg

    def test_query_vector_bounds_from_heterogeneous_fixture(self):
        # Universe of five, field of five: every query frame carries five
        # residues in [0, 4] and survives a wire round trip.
        from mppsi.demo import DEMOS
        from mppsi.session import run_memory_session

        transcript = run_memory_session(DEMOS["sec7_2"].config)
        queries = transcript.messages_in_phase("query")
        assert queries
        for msg in queries:
            decoded = decode_msg(encode_msg(msg))
            assert decoded == msg
            assert len(decoded.values) == 5
            assert all(0 <= v <= 4 for v in decoded.values)

    @pytest.mark.parametrize("modulus", [2, 3, 10, 11, 101, 251])
    def test_queries_of_every_field_width_round_trip(self, modulus):
        # 1,000 values, one value and none: frames carry them as they are, and
        # transcripts load their bodies back, from one-digit residues to three.
        rng = random.Random(modulus)
        values = bytes(rng.randrange(modulus) for _ in range(1000))
        query = Message("query", "f" * SESSION_ID_CHARS, "query", (3, 0), (1, 2), 4, 9, values)
        for msg in (query, query._replace(values=values[:1]), query._replace(values=b"")):
            assert decode_msg(encode_msg(msg)) == msg
            assert loaded(render_body(msg), *agreeing(msg)) == msg


def outcome(codec, data) -> tuple:
    """("ok", codec(data)) or ("rejected",); any other exception propagates."""
    try:
        return ("ok", codec(data))
    except ProtocolViolationError:
        return ("rejected",)


# Bytes that move a payload on or off the one-digit path, or break it.
MUTATION_CHUNKS = st.one_of(
    st.sampled_from([bytes([b]) for b in b'09,[]{}": -.e\\\xff\xc3']),
    st.binary(min_size=1, max_size=3),
)


@st.composite
def mutated_bodies(draw):
    """A rendered payload with a few byte-level edits, most near its end, and the
    session id and answer count of its unedited message."""
    msg = draw(st.one_of(MESSAGES, ORACLE_MESSAGES))
    body = bytearray(render_body(msg))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "values")))
        if kind == "values":
            start = body.rfind(b',"values":[')
            if start >= 0:
                tail = draw(st.text(alphabet="0123456789,- .", max_size=8)).encode("ascii")
                body[start:] = b',"values":[' + tail + b"]}"
            continue
        if draw(st.booleans()):
            pos = len(body) - draw(st.integers(0, min(len(body), 30)))
        else:
            pos = draw(st.integers(0, len(body)))
        chunk = draw(MUTATION_CHUNKS)
        if kind == "insert":
            body[pos:pos] = chunk
        elif kind == "delete":
            del body[pos : pos + len(chunk)]
        else:
            body[pos : pos + len(chunk)] = chunk
    return (bytes(body), *agreeing(msg))


# render_body's head for a lowercase hex session id, up to the values.
CANONICAL = (
    b'{"dest":[1,2],"origin":[3,0],"partition":1,"phase":"query",'
    b'"session_id":"0a1b","target":null,"type":"query"'
)

# Payload and the values it loads as, or None where its transcript_of is
# rejected. Every accepted payload is exactly what render_body writes; any
# other spelling, even valid JSON of the same message, is rejected.
PINNED_PAYLOADS = {
    "canonical": (CANONICAL + b',"values":[1,0,2]}', b"\x01\x00\x02"),
    "canonical-trailing-comma": (CANONICAL + b',"values":[1,2,]}', None),
    "canonical-leading-zero-dest": (
        CANONICAL.replace(b'"dest":[1,2]', b'"dest":[01,2]') + b',"values":[1]}',
        None,
    ),
    "canonical-nine-digit-partition": (
        CANONICAL.replace(b'"partition":1', b'"partition":123456789') + b',"values":[1]}',
        b"\x01",
    ),
    "canonical-ten-digit-partition": (
        CANONICAL.replace(b'"partition":1', b'"partition":1234567890') + b',"values":[1]}',
        None,
    ),
    "canonical-zero-partition": (
        CANONICAL.replace(b'"partition":1', b'"partition":0') + b',"values":[1]}',
        None,
    ),
    "canonical-true-target": (
        CANONICAL.replace(b'"target":null', b'"target":true') + b',"values":[1]}',
        None,
    ),
    "canonical-uppercase-session-id": (
        CANONICAL.replace(b'"0a1b"', b'"0A1B"') + b',"values":[1]}',
        None,
    ),
    "canonical-escaped-session-id": (
        CANONICAL.replace(b'"0a1b"', b'"\\u0030a1b"') + b',"values":[1]}',
        None,
    ),
    "canonical-non-hex-session-id": (
        CANONICAL.replace(b'"0a1b"', b'"s"') + b',"values":[1]}',
        None,
    ),
    "canonical-empty-session-id": (CANONICAL.replace(b'"0a1b"', b'""') + b',"values":[1]}', None),
    "canonical-unknown-type": (
        CANONICAL.replace(b'"type":"query"', b'"type":"gossip"') + b',"values":[1]}',
        None,
    ),
    "canonical-phase-type-mismatch": (
        CANONICAL.replace(b'"phase":"query"', b'"phase":"answer"') + b',"values":[1]}',
        None,
    ),
    "canonical-space-after-colon": (
        CANONICAL.replace(b'"partition":1', b'"partition": 1') + b',"values":[1]}',
        None,
    ),
    "one-digit": (CANONICAL + b',"values":[1,0,2]}', b"\x01\x00\x02"),
    "empty": (CANONICAL + b',"values":[]}', b""),
    "trailing-comma": (CANONICAL + b',"values":[1,]}', None),
    "leading-comma": (CANONICAL + b',"values":[,1]}', None),
    "double-comma": (CANONICAL + b',"values":[1,,2]}', None),
    "two-digit": (CANONICAL + b',"values":[1,10]}', b"\x01\x0a"),
    "byte-max": (CANONICAL + b',"values":[255,10]}', b"\xff\x0a"),
    "past-one-byte": (CANONICAL + b',"values":[10,256]}', None),
    "space": (CANONICAL + b',"values":[1, 2]}', None),
    "negative": (CANONICAL + b',"values":[-1]}', None),
    "string": (CANONICAL + b',"values":["1"]}', None),
    "float": (CANONICAL + b',"values":[1.0]}', None),
    "wide": (CANONICAL + b',"values":[10,255]}', b"\x0a\xff"),
    "wide-leading-zero": (CANONICAL + b',"values":[01]}', None),
    "wide-double-zero": (CANONICAL + b',"values":[00]}', None),
    "wide-negative-zero": (CANONICAL + b',"values":[-0]}', None),
    "wide-past-one-byte": (CANONICAL + b',"values":[256]}', None),
    "wide-trailing-comma": (CANONICAL + b',"values":[10,]}', None),
    "wide-leading-space": (CANONICAL + b',"values":[ 10]}', None),
    # Not a list: bytes() of a number would be that many zero bytes.
    "number": (CANONICAL + b',"values":3}', None),
    "huge-number": (CANONICAL + b',"values":' + b"9" * 18 + b"}", None),
    "duplicate-earlier": (b'{"values":[-1],' + CANONICAL[1:] + b',"values":[1,2]}', None),
    "duplicate-earlier-bad-last": (b'{"values":[1],' + CANONICAL[1:] + b',"values":[1,]}', None),
    "values-not-last": (b'{"values":[1,2],' + CANONICAL[1:] + b"}", None),
    "values-before-dest": (
        b'{"origin":[3,0],"partition":1,"phase":"query","session_id":"0a1b","target":null,'
        b'"type":"query","values":[1,2],"dest":[1,2]}',
        None,
    ),
    "nested-object": (CANONICAL + b',"values":[1],"target":{"a":1,"values":[2]}', None),
    "nested-object-closed": (CANONICAL + b',"target":{"a":1,"values":[2]}}', None),
    "bare-brace": (b'{,"values":[1]}', None),
    "bare-brace-space": (b'{ ,"values":[1]}', None),
    "closed-head": (CANONICAL + b'},"values":[1]}', None),
    "trailing-comma-member": (CANONICAL + b',"values":[1,2],}', None),
    "trailing-space": (CANONICAL + b',"values":[1,2]} ', None),
    "leading-space": (b" " + CANONICAL + b',"values":[1,2]}', None),
    "bad-utf8-head": (CANONICAL.replace(b'"0a1b"', b'"\xff"') + b',"values":[1]}', None),
    "split-utf8-head": (CANONICAL + b',"x":"\xc3,"values":[1]}', None),
    "utf8-bom": (b"\xef\xbb\xbf" + CANONICAL + b',"values":[1]}', None),
    "deep-head": (b'{"target":' + b"[" * 100_000 + b',"values":[1]}', None),
    "nested-duplicate-head": (
        b'{"target":' + b"[" * 50 + b"]" * 50 + b"," + CANONICAL[1:] + b',"values":[1]}',
        None,
    ),
    "nan-in-head": (
        CANONICAL.replace(b'"partition":1', b'"partition":NaN') + b',"values":[1]}',
        None,
    ),
    "long-int-in-head": (
        CANONICAL.replace(b'"partition":1', b'"partition":' + b"1" * 5000) + b',"values":[1]}',
        None,
    ),
}


# The transcript session id of the pinned payloads whose own id is not
# "0a1b": each is wrapped in a transcript of its own id, so only the frame
# rule can reject it.
PINNED_SESSION_IDS = {
    "canonical-uppercase-session-id": "0A1B",
    "canonical-non-hex-session-id": "s",
    "canonical-empty-session-id": "",
}


def loaded(body: bytes, session_id: str = "0a1b", answers: int = 0) -> Message:
    """The one message of transcript_of(body), checked to be the JSON oracle's
    message and to render to body."""
    (msg,) = load_transcript(transcript_of(body, session_id, answers)).messages
    assert reference_decode(body) == msg
    assert render_body(msg) == body
    return msg


class TestLoaderAgreesWithReference:
    """load_transcript accepts only the bodies render_body writes, and the JSON oracle agrees."""

    @given(CANONICAL_MESSAGES)
    def test_rendered_bodies(self, msg):
        assert loaded(render_body(msg), *agreeing(msg)) == msg

    @given(ORACLE_MESSAGES)
    def test_other_session_ids_are_rejected(self, msg):
        # Arbitrary text ids, each in a transcript of its own id: only a
        # nonempty lowercase hex one loads, and only such a message can be framed.
        body = render_body(msg)
        if re.fullmatch("[0-9a-f]+", msg.session_id):
            assert loaded(body, *agreeing(msg)) == msg
            assert decode_msg(encode_msg(msg)) == msg
        else:
            assert outcome(load_transcript, transcript_of(body, *agreeing(msg))) == ("rejected",)
            assert outcome(encode_msg, msg) == ("rejected",)

    @settings(max_examples=400)
    @given(mutated_bodies())
    def test_mutated_bodies(self, mutated):
        if outcome(load_transcript, transcript_of(*mutated)) != ("rejected",):
            loaded(*mutated)

    @pytest.mark.parametrize("name", sorted(PINNED_PAYLOADS))
    def test_pinned_payloads(self, name):
        body, values = PINNED_PAYLOADS[name]
        if name in PINNED_SESSION_IDS:
            with pytest.raises(ProtocolViolationError, match="cannot be framed"):
                load_transcript(transcript_of(body, PINNED_SESSION_IDS[name]))
        elif values is None:
            assert outcome(load_transcript, transcript_of(body)) == ("rejected",)
        else:
            msg = loaded(body)
            assert type(msg.values) is bytes and msg.values == values

    def test_a_query_longer_than_a_frame_loads(self):
        # A memory session's query is not framed, so its length is not bounded by one.
        msg = Message("query", "0a1b", "query", (3, 0), (1, 2), 1, None, bytes(MAX_FRAME_BYTES))
        assert outcome(encode_msg, msg) == ("rejected",)
        assert loaded(render_body(msg)) == msg


class TestMessage:
    MSG = Message("answer", "feed", "answer", (1, 2), (3, 0), 1, None, b"\x04")
    OTHER = {
        "type": "t_share",
        "session_id": "beef",
        "phase": "randomness",
        "origin": (1, 3),
        "dest": (3, 1),
        "partition": 2,
        "target": 1,
        "values": b"\x05",
    }

    def test_fields_keep_their_names_and_order(self):
        assert Message._fields == tuple(self.OTHER)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.MSG.values = b"\x05"

    def test_hashable_and_equal_field_by_field(self):
        twin = Message(**self.MSG._asdict())
        assert twin is not self.MSG and twin == self.MSG
        assert hash(twin) == hash(self.MSG)
        assert len({self.MSG, twin}) == 1
        for name, value in self.OTHER.items():
            changed = self.MSG._replace(**{name: value})
            assert changed != self.MSG, name
            assert len({self.MSG, changed}) == 2, name


class TestRenderBody:
    @given(ORACLE_MESSAGES)
    def test_body_equals_sorted_key_json(self, msg):
        assert render_body(msg) == reference_body(msg).encode("ascii")

    def test_multi_digit_values_are_joined(self):
        values = bytes((10, 0, 9, 99, 100, 255))
        msg = Message("query", "s", "query", (3, 0), (1, 2), 1, None, values)
        assert render_body(msg).endswith(b'"values":[10,0,9,99,100,255]}')
        assert render_body(msg) == reference_body(msg).encode("ascii")

    @given(TRANSCRIPTS)
    def test_transcript_equals_sorted_key_json_of_its_layout(self, transcript):
        expected = json.dumps(
            reference_transcript_layout(transcript), sort_keys=True, separators=(",", ":")
        )
        assert transcript.serialize() == (expected + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "values,text",
        [
            (b"", b""),
            (b"\x07", b"7"),
            (b"\x0b", b"11"),
            (b"\xff", b"255"),
            (b"\x00\x09\x03", b"0,9,3"),
            (b"\x00\x0a\xff\x01", b"0,10,255,1"),
        ],
    )
    def test_values_render_as_decimals_between_commas(self, values, text):
        assert render_values(values) == text

    @pytest.mark.parametrize("kind", sorted(PHASE_BY_TYPE))
    def test_empty_values_render_as_an_empty_list(self, kind):
        msg = Message(kind, "0a1b", PHASE_BY_TYPE[kind], (3, 0), (1, 2), 1, None, b"")
        assert render_body(msg).endswith(b',"values":[]}')
        assert render_body(msg) == reference_body(msg).encode("ascii")
        assert loaded(render_body(msg), "0a1b", int(kind == "answer")) == msg
        assert len(encode_msg(msg)) == frame_size(msg) == 34
        assert decode_msg(encode_msg(msg)) == msg
        transcript = SessionTranscript("s", 1, CostTable({1: 0}), (msg, msg), EMPTY_RESULT)
        assert transcript.serialize() == reference_serialized(transcript)
        assert b'"values":[]},{"dest"' in transcript.serialize()

    def test_transcript_without_messages(self):
        transcript = SessionTranscript("s", 2, CostTable({1: 3, 2: None}), (), EMPTY_RESULT)
        data = transcript.serialize()
        assert b'"messages":[]' in data
        assert data == reference_serialized(transcript)
        assert load_transcript(data) == transcript

    def test_two_digit_residues_of_the_eleven_session(self):
        transcript = run_memory_session(eleven_config())
        assert any(len(m.values) > 1 and max(m.values) > 9 for m in transcript.messages)
        assert any(m.values == b"\x0a" for m in transcript.messages_in_phase("answer"))
        for msg in transcript.messages:
            assert render_body(msg) == reference_body(msg).encode("ascii")
            assert encode_msg(msg).endswith(msg.values)
        assert transcript.serialize() == reference_serialized(transcript)

    def test_serialize_peak_memory_stays_near_its_output(self):
        # The rendered bodies and the one joined result: about twice the output.
        transcript = run_memory_session(wide_config())
        tracemalloc.start()
        try:
            data = transcript.serialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(data)


class TestQueryFrameBound:
    @staticmethod
    def widest(universe, modulus, parties, databases):
        return Message(
            type="query",
            session_id="f" * SESSION_ID_CHARS,
            phase="query",
            origin=(parties, 0),
            dest=(parties, databases),
            partition=universe,
            target=universe,
            values=bytes((modulus - 1,)) * universe,
        )

    @pytest.mark.parametrize(
        "universe,modulus,parties,databases",
        [(1, 2, 2, 2), (37, 3, 3, 3), (1000, 5, 4, 12), (349_478, 11, 11, 9)],
    )
    def test_bound_is_the_widest_encoded_payload(self, universe, modulus, parties, databases):
        # Neither the field nor the party and database ids widen a frame.
        frame = encode_msg(self.widest(universe, modulus, parties, databases))
        assert len(frame) - HEADER.size == max_query_frame_bytes(universe)
        assert max_query_frame_bytes(universe) == 2 + SESSION_ID_CHARS + 24 + universe

    def test_one_coordinate_past_the_bound_does_not_encode(self):
        assert max_query_frame_bytes(1_048_534) == MAX_FRAME_BYTES
        assert max_query_frame_bytes(1_048_535) > MAX_FRAME_BYTES
        encode_msg(self.widest(1_048_534, 7, 7, 9))
        with pytest.raises(ProtocolViolationError):
            encode_msg(self.widest(1_048_535, 7, 7, 9))


class TestFrameErrors:
    def test_zero_length_frame(self):
        with pytest.raises(ProtocolViolationError):
            decode_msg(struct.pack(">I", 0))

    def test_oversized_declared_length(self):
        with pytest.raises(ProtocolViolationError):
            decode_msg(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")

    def test_truncated_header(self):
        with pytest.raises(ProtocolViolationError):
            decode_msg(b"\x00\x00")

    def test_truncated_body(self):
        body = b'{"type": "query"}'
        with pytest.raises(ProtocolViolationError):
            decode_msg(struct.pack(">I", len(body) + 4) + body)

    def test_text_payload(self):
        with pytest.raises(ProtocolViolationError):
            decode_msg(frame_with_body(b"not json"))

    @pytest.mark.parametrize(
        "body", [b"[" * 100_000, b'{"values": [' + b"1" * 5000 + b"]}"], ids=["nested", "digits"]
    )
    def test_json_payload(self, body):
        with pytest.raises(ProtocolViolationError):
            decode_msg(frame_with_body(body))


def with_tag(index: int, value: int) -> bytes:
    tags = [3, 0, 1, 2, 1, 0]
    tags[index] = value
    return raw_frame(tags=tuple(tags))


# Frames decode_msg rejects, next to raw_frame(), which it accepts.
REJECTED_FRAMES = {
    "type-code-0": raw_frame(code=0),
    "type-code-5": raw_frame(code=5),
    "empty-id": raw_frame(session_id=b""),
    "uppercase-id": raw_frame(session_id=b"0A1B"),
    "non-hex-id": raw_frame(session_id=b"0g1b"),
    "non-ascii-id": raw_frame(session_id=b"0a\xc3\xa9"),
    "id-length-past-the-end": raw_frame(id_len=255),
    "truncated-head": frame_with_body(raw_frame(values=b"")[HEADER.size : -1]),
    "type-code-only": frame_with_body(b"\x03"),
    **{
        f"tag-{name}-1e9": with_tag(index, MAX_TAG + 1)
        for index, name in enumerate(
            ("origin-party", "origin-db", "dest-party", "dest-db", "partition", "target")
        )
    },
    "zero-length": struct.pack(">I", 0),
    "length-over-1MiB": struct.pack(">I", MAX_FRAME_BYTES + 1) + raw_frame()[HEADER.size :],
    "length-short-of-the-frame": struct.pack(">I", 30) + raw_frame()[HEADER.size :],
}


class TestFrameRejections:
    def test_the_unedited_frame_is_accepted(self):
        msg = Message("query", "0a1b", "query", (3, 0), (1, 2), 1, None, b"\0\1\2")
        assert decode_msg(raw_frame()) == msg
        assert encode_msg(msg) == raw_frame() == (
            b"\0\0\0\x21" b"\x03\x04" b"0a1b"
            + bytes.fromhex("00000003" "00000000" "00000001" "00000002" "00000001" "00000000")
            + b"\0\1\2"
        )
        assert decode_msg(with_tag(5, MAX_TAG)).target == MAX_TAG

    @pytest.mark.parametrize("name", list(REJECTED_FRAMES))
    def test_rejected(self, name):
        assert outcome(decode_msg, REJECTED_FRAMES[name]) == ("rejected",)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("phase", "answer"),
            ("type", "gossip"),
            ("session_id", ""),
            ("session_id", "0A1B"),
            ("session_id", "0a\u00e9"),
            ("session_id", "a" * 256),
            ("origin", (-1, 0)),
            ("dest", (1, MAX_TAG + 1)),
            ("partition", 0),
            ("target", 0),
            ("target", MAX_TAG + 1),
            ("partition", 1.0),
            ("origin", (3, 0.0)),
            ("target", "1"),
            ("session_id", 5),
            ("values", [0, 1, 2]),
        ],
    )
    def test_a_message_no_frame_carries_does_not_encode(self, field, value):
        msg = decode_msg(raw_frame())._replace(**{field: value})
        assert outcome(encode_msg, msg) == ("rejected",)


class TestSplitFrames:
    MSG = Message("answer", "feed", "answer", (1, 2), (3, 0), 1, None, b"\x04")

    def test_whole_frames_leave_and_a_partial_one_stays(self):
        frame = encode_msg(self.MSG)
        buffer = bytearray(frame + frame + frame[:5])
        assert split_frames(buffer) == [frame, frame]
        assert buffer == frame[:5]
        buffer += frame[5:]
        assert [decode_msg(f) for f in split_frames(buffer)] == [self.MSG]
        assert buffer == b""

    def test_short_header_waits(self):
        buffer = bytearray(b"\x00\x00")
        assert split_frames(buffer) == []
        assert buffer == b"\x00\x00"

    @pytest.mark.parametrize("length", [0, MAX_FRAME_BYTES + 1])
    def test_bad_declared_length(self, length):
        with pytest.raises(ProtocolViolationError):
            split_frames(bytearray(struct.pack(">I", length) + b"x"))


def valid_payload(**overrides):
    payload = {
        "type": "query",
        "session_id": "0a1b",
        "phase": "query",
        "origin": [3, 0],
        "dest": [1, 2],
        "partition": 1,
        "target": None,
        "values": [0, 1, 2],
    }
    payload.update(overrides)
    return payload


def decode_payload(payload: dict) -> Message:
    """The message of the payload's sorted-key JSON (render_body's bytes, bar one
    bad field) in a transcript_of the payload's own session id."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    (msg,) = load_transcript(transcript_of(body, payload["session_id"])).messages
    return msg


class TestPayloadValidation:
    def test_valid_payload_parses(self):
        msg = decode_payload(valid_payload())
        assert msg.origin == (3, 0)
        assert msg.values == b"\x00\x01\x02"

    def test_unknown_type(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(type="gossip", phase="query"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(padding="xx"))

    def test_missing_field_rejected(self):
        payload = valid_payload()
        del payload["values"]
        with pytest.raises(ProtocolViolationError):
            decode_payload(payload)

    def test_phase_must_match_type(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(phase="randomness"))

    def test_empty_session_id_rejected(self):
        with pytest.raises(ProtocolViolationError, match="cannot be framed"):
            decode_payload(valid_payload(session_id=""))

    def test_negative_value_rejected(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(values=[-1]))

    def test_bool_values_rejected(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(values=[True]))

    @pytest.mark.parametrize("value", [1.0, "1", None, [1]])
    def test_non_integer_values_rejected(self, value):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(values=[0, value, 2]))

    @pytest.mark.parametrize("value", [256, 2**64])
    def test_value_past_one_byte_rejected(self, value):
        with pytest.raises(ProtocolViolationError, match="0..255"):
            decode_payload(valid_payload(values=[0, value, 2]))

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(origin=[1]))

    def test_zero_partition_rejected(self):
        with pytest.raises(ProtocolViolationError):
            decode_payload(valid_payload(partition=0))

    def test_payload_is_plain_decimal_json(self):
        msg = Message("query", "0a1b", "query", (3, 0), (1, 2), 1, None, b"\x00\x01\x02")
        parsed = json.loads(render_body(msg).decode("utf-8"))
        assert parsed["values"] == [0, 1, 2]
