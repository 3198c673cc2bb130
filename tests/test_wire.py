"""Wire format: binary frames, on the wire and as the entries of a transcript file."""

import base64
import functools
import json
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mppsi.errors import ProtocolViolationError
from mppsi.field import MAX_PARTIES
from mppsi.leader import CostTable, IntersectionResult
from mppsi.randomness import share_order
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
    split_frames,
)
from test_golden import GOLDEN_CONFIGS, wide_config

ENDPOINT = st.tuples(st.integers(0, 9), st.integers(0, 9))

MESSAGES = st.one_of(
    st.builds(
        Message,
        type=st.just("query"),
        session_id=st.text(min_size=1, max_size=12, alphabet="abcdef0123456789"),
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
        origin=ENDPOINT,
        dest=ENDPOINT,
        partition=st.none(),
        target=st.integers(1, 8),
        values=st.lists(st.integers(0, 6), min_size=1, max_size=1).map(bytes),
    ),
)

# Every message a session can send: a lowercase hex session id, endpoints and
# tags below 10^9, and residues anywhere in 0..255.
BELOW_1E9 = st.integers(0, 10**9 - 1)
CANONICAL_MESSAGES = st.builds(
    Message,
    type=st.sampled_from(sorted(PHASE_BY_TYPE)),
    session_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=SESSION_ID_CHARS),
    origin=st.tuples(BELOW_1E9, BELOW_1E9),
    dest=st.tuples(BELOW_1E9, BELOW_1E9),
    partition=st.one_of(st.none(), st.integers(1, 10**9 - 1)),
    target=st.one_of(st.none(), st.integers(1, 10**9 - 1)),
    values=st.one_of(st.lists(st.integers(0, 9), max_size=40).map(bytes), st.binary(max_size=40)),
)

# Arbitrary text, with quotes, backslashes, control and non-ASCII characters
# drawn often.
ANY_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\x00\x7f\u00e9\u2603\U0001f600'), st.characters()),
    min_size=1,
    max_size=12,
)


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


def outcome(codec, data) -> tuple:
    """("ok", codec(data)) or ("rejected",); any other exception propagates."""
    try:
        return ("ok", codec(data))
    except ProtocolViolationError:
        return ("rejected",)


def transcript_of(*messages: Message, session_id: str = "0a1b") -> SessionTranscript:
    """A transcript of messages whose head and tail agree with them.

    Leader 1 of a cost table of MAX_PARTIES parties, {1: 0} and None for the
    rest, whose field L = 251 holds every value below 251 a frame carries,
    and an empty result whose download cost is the messages' answer count.
    """
    answers = sum(m.type == "answer" for m in messages)
    result = IntersectionResult(decoded=frozenset(), indicators={}, download_cost_actual=answers)
    costs = CostTable({1: 0, **dict.fromkeys(range(2, MAX_PARTIES + 1))})
    return SessionTranscript(session_id, 1, costs, messages, result)


def loaded(msg: Message) -> Message:
    """The one message of msg's transcript file, written and loaded back."""
    (back,) = load_transcript(transcript_of(msg, session_id=msg.session_id).serialize()).messages
    return back


def entry_of(frame: bytes) -> bytes:
    """A frame as the quoted base64 text of its transcript entry."""
    return b'"' + base64.b64encode(frame) + b'"'


def split_entries(data: bytes) -> tuple:
    """A transcript file as the text up to its entries, the entries, and the rest."""
    head, rest = data.split(b'"messages":[', 1)
    entries, tail = rest.split(b"]", 1)
    return head + b'"messages":[', entries.split(b",") if entries else [], b"]" + tail


def join_entries(head: bytes, entries: list, tail: bytes) -> bytes:
    return head + b",".join(entries) + tail


@functools.lru_cache(maxsize=None)
def golden_file(name: str) -> bytes:
    return run_memory_session(GOLDEN_CONFIGS[name]()).serialize()


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
        # Every message a frame carries can be written to a transcript, and
        # loads exactly when its values are residues of the widest field.
        if all(value < MAX_PARTIES for value in msg.values):
            assert loaded(msg) == msg
        else:
            with pytest.raises(ProtocolViolationError, match=r"outside \[0, 251\)"):
                loaded(msg)

    @given(
        st.builds(
            Message,
            type=st.sampled_from(sorted(PHASE_BY_TYPE)),
            session_id=ANY_TEXT,
            origin=ENDPOINT,
            dest=ENDPOINT,
            partition=st.one_of(st.none(), st.integers(1, 8)),
            target=st.one_of(st.none(), st.integers(1, 8)),
            values=st.binary(max_size=8),
        )
    )
    def test_only_lowercase_hex_session_ids_are_framed(self, msg):
        if re.fullmatch("[0-9a-f]+", msg.session_id):
            assert decode_msg(encode_msg(msg)) == msg
        else:
            assert outcome(encode_msg, msg) == ("rejected",)

    def test_query_vector_bounds_from_heterogeneous_fixture(self):
        # Universe of five, field of five: every query frame carries five
        # residues in [0, 4] and survives a wire round trip.
        from mppsi.demo import DEMOS

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
        # transcripts load them back, from one-digit residues to three.
        rng = random.Random(modulus)
        values = bytes(rng.randrange(modulus) for _ in range(1000))
        query = Message("query", "f" * SESSION_ID_CHARS, (3, 0), (1, 2), 4, 9, values)
        for msg in (query, query._replace(values=values[:1]), query._replace(values=b"")):
            assert decode_msg(encode_msg(msg)) == msg
            assert loaded(msg) == msg


class TestMessage:
    MSG = Message("answer", "feed", (1, 2), (3, 0), 1, None, b"\x04")
    OTHER = {
        "type": "t_share",
        "session_id": "beef",
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

    @pytest.mark.parametrize("kind", sorted(PHASE_BY_TYPE))
    def test_phase_follows_from_the_type(self, kind):
        msg = self.MSG._replace(type=kind)
        assert msg.phase == PHASE_BY_TYPE[kind]
        assert decode_msg(encode_msg(msg)).phase == msg.phase
        with pytest.raises(ValueError):
            msg._replace(phase="query")


class TestTranscriptFile:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_transcripts_round_trip_through_their_frames(self, name):
        transcript = run_memory_session(GOLDEN_CONFIGS[name]())
        data = transcript.serialize()
        raw = json.loads(data)
        assert [base64.b64decode(entry) for entry in raw["messages"]] == [
            encode_msg(m) for m in transcript.messages
        ]
        back = load_transcript(data)
        assert back == transcript
        assert back.serialize() == data

    @given(
        st.builds(
            SessionTranscript,
            session_id=ANY_TEXT,
            leader_id=st.integers(1, 20),
            cost_table=st.dictionaries(
                st.integers(1, 20), st.one_of(st.none(), st.integers(0, 10**6))
            ).map(CostTable),
            messages=st.lists(CANONICAL_MESSAGES, max_size=6).map(tuple),
            result=st.builds(
                IntersectionResult,
                decoded=st.frozensets(st.integers(1, 50)),
                indicators=st.dictionaries(st.integers(1, 50), st.integers(0, 12)),
                download_cost_actual=st.integers(0, 100),
            ),
        )
    )
    def test_file_is_sorted_key_json_with_base64_frames(self, transcript):
        layout = {
            "session_id": transcript.session_id,
            "leader": transcript.leader_id,
            "cost_table": {str(pid): cost for pid, cost in transcript.cost_table.costs.items()},
            "messages": [base64.b64encode(encode_msg(m)).decode() for m in transcript.messages],
            "result": {
                "decoded": sorted(transcript.result.decoded),
                "indicators": {str(e): v for e, v in transcript.result.indicators.items()},
                "download_cost_actual": transcript.result.download_cost_actual,
            },
        }
        expected = json.dumps(layout, sort_keys=True, separators=(",", ":")) + "\n"
        assert transcript.serialize() == expected.encode("utf-8")

    @given(st.lists(CANONICAL_MESSAGES, max_size=8))
    def test_every_file_in_transcript_order_loads(self, messages):
        # Shares by strictly increasing share_order, then queries and answers
        # each by strictly increasing sort_key: the loader's order rule
        # accepts every such file whose values are residues of its field,
        # L = 251.
        rank = {"randomness": 0, "query": 1, "answer": 2}
        keyed = {
            (rank[m.phase], share_order(m) if rank[m.phase] == 0 else m.sort_key()): m
            for m in messages
        }
        in_order = [keyed[key] for key in sorted(keyed)]
        transcript = transcript_of(*(
            m._replace(session_id="0a1b", values=bytes(v % MAX_PARTIES for v in m.values))
            for m in in_order
        ))
        assert load_transcript(transcript.serialize()) == transcript

    def test_transcript_without_messages(self):
        transcript = transcript_of()
        data = transcript.serialize()
        assert b'"messages":[]' in data
        assert load_transcript(data) == transcript

    @pytest.mark.parametrize("kind", sorted(PHASE_BY_TYPE))
    def test_messages_without_values(self, kind):
        msg = Message(kind, "0a1b", (3, 0), (1, 2), 1, None, b"")
        assert len(encode_msg(msg)) == frame_size(msg) == 34
        transcript = transcript_of(msg, msg._replace(target=2))
        assert load_transcript(transcript.serialize()) == transcript

    def test_serialize_peak_memory_stays_near_its_output(self):
        # The base64 entries and the one joined result: about twice the output.
        transcript = run_memory_session(wide_config())
        tracemalloc.start()
        try:
            data = transcript.serialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(data)


ENTRY = entry_of(raw_frame())

# An entry of a one-message transcript file (transcript_of(decode_msg(raw_frame())))
# edited, and whether the file still loads. Only the one entry serialize
# writes loads: any other spelling of the same frame, or of any other bytes,
# is rejected.
ENTRY_EDITS = {
    "canonical": (lambda e: e, True),
    "padding-dropped": (lambda e: e.replace(b"==", b""), False),
    "padding-doubled": (lambda e: e.replace(b"==", b"===="), False),
    "space-inside": (lambda e: e[:9] + b" " + e[9:], False),
    "leading-space": (lambda e: b'" ' + e[1:], False),
    "trailing-space": (lambda e: e[:-1] + b' "', False),
    "padding-inside": (lambda e: e[:9] + b"==" + e[9:], False),
    "escaped-newline-inside": (lambda e: e[:9] + b"\\n" + e[9:], False),
    "url-safe-character": (lambda e: e[:9] + b"-" + e[10:], False),
    "non-ascii-character": (lambda e: e[:9] + "\u00e9".encode() + e[10:], False),
    # "g" and "h" differ only in bits past the frame's last byte.
    "unused-bits-set": (lambda e: e.replace(b"g==", b"h=="), False),
    "json-escaped-letter": (lambda e: b'"\\u0041' + e[2:], False),
    "empty-string": (lambda e: b'""', False),
    "number": (lambda e: b"3", False),
    "null": (lambda e: b"null", False),
    "list": (lambda e: b"[" + e + b"]", False),
    "object": (lambda e: b'{"frame":' + e + b"}", False),
    "trailing-byte": (lambda e: entry_of(raw_frame() + b"\0"), False),
    "two-frames": (lambda e: entry_of(raw_frame() * 2), False),
    "cut-frame": (lambda e: entry_of(raw_frame()[:-1]), False),
    "other-session-id": (lambda e: entry_of(raw_frame(session_id=b"0a1c")), False),
    "answer-in-place-of-the-query": (lambda e: entry_of(raw_frame(code=4)), False),
    "longer-session-id": (lambda e: entry_of(raw_frame(session_id=b"0a1b0")), False),
    "other-values": (lambda e: entry_of(raw_frame(values=b"\4\4")), True),
    "value-past-the-field": (lambda e: entry_of(raw_frame(values=b"\0\xfb")), False),
    "no-values": (lambda e: entry_of(raw_frame(values=b"")), True),
    "null-partition-and-target": (lambda e: entry_of(raw_frame(tags=(3, 0, 1, 2, 0, 0))), True),
    "largest-tags": (lambda e: entry_of(raw_frame(tags=(MAX_TAG,) * 6)), True),
    "t-share": (lambda e: entry_of(raw_frame(code=1)), True),
    "c-share": (lambda e: entry_of(raw_frame(code=2)), True),
}


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

# Bytes that often break a base64 entry or the JSON around it.
TEXT_CHUNKS = st.one_of(
    st.sampled_from([bytes([b]) for b in b'AQg/+=-_ "\\,]\n\xc3']),
    st.binary(min_size=1, max_size=3),
)


@st.composite
def mutated_files(draw):
    """sec7_2's transcript file with a few edits of one entry's base64 text
    (often near its padding), or of the head of the frame it encodes; and
    the index of that entry."""
    head, entries, tail = split_entries(golden_file("sec7_2"))
    index = draw(st.integers(0, len(entries) - 1))
    edit_text = draw(st.booleans())
    target = bytearray(entries[index] if edit_text else base64.b64decode(entries[index][1:-1]))
    for _ in range(draw(st.integers(1, 3))):
        if edit_text:
            end = len(target)
            pos = draw(st.one_of(st.integers(max(0, end - 6), end), st.integers(0, end)))
            chunk = draw(TEXT_CHUNKS)
        else:
            pos = draw(st.integers(0, min(len(target), 50)))
            chunk = draw(st.binary(min_size=1, max_size=2))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            target[pos:pos] = chunk
        elif kind == "delete":
            del target[pos : pos + len(chunk)]
        else:
            target[pos : pos + len(chunk)] = chunk
    entries[index] = bytes(target) if edit_text else entry_of(bytes(target))
    return join_entries(head, entries, tail), index


class TestTranscriptEntries:
    @pytest.mark.parametrize("name", sorted(ENTRY_EDITS))
    def test_edited_entry(self, name):
        edit, loads = ENTRY_EDITS[name]
        msg = decode_msg(raw_frame())
        head, (entry,), tail = split_entries(transcript_of(msg).serialize())
        assert entry == ENTRY
        data = join_entries(head, [edit(entry)], tail)
        if loads:
            (back,) = load_transcript(data).messages
            assert entry_of(encode_msg(back)) == edit(entry)
        else:
            with pytest.raises(ProtocolViolationError):
                load_transcript(data)

    @pytest.mark.parametrize("name", list(REJECTED_FRAMES))
    def test_every_frame_decode_msg_rejects_is_rejected_as_an_entry(self, name):
        assert outcome(decode_msg, REJECTED_FRAMES[name]) == ("rejected",)
        head, _, tail = split_entries(transcript_of(decode_msg(raw_frame())).serialize())
        data = join_entries(head, [entry_of(REJECTED_FRAMES[name])], tail)
        with pytest.raises(ProtocolViolationError):
            load_transcript(data)

    @settings(max_examples=300)
    @given(mutated_files())
    def test_mutated_entries_are_rejected_or_reserialize(self, mutated):
        data, index = mutated
        result = outcome(load_transcript, data)
        if result == ("rejected",):
            return
        transcript = result[1]
        assert transcript.serialize() == data
        original = load_transcript(golden_file("sec7_2")).messages
        changed = [i for i, (a, b) in enumerate(zip(transcript.messages, original)) if a != b]
        assert len(transcript.messages) != len(original) or set(changed) <= {index}


class TestQueryFrameBound:
    @staticmethod
    def widest(universe, modulus, parties, databases):
        return Message(
            type="query",
            session_id="f" * SESSION_ID_CHARS,
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


class TestFrameRejections:
    def test_the_unedited_frame_is_accepted(self):
        msg = Message("query", "0a1b", (3, 0), (1, 2), 1, None, b"\0\1\2")
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
            ("type", "gossip"),
            ("type", ["query"]),
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
    MSG = Message("answer", "feed", (1, 2), (3, 0), 1, None, b"\x04")

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
