"""Wire format: framing and message codec."""

import json
import struct

import pytest
from hypothesis import given, strategies as st

from mppsi.errors import ProtocolViolationError
from mppsi.wire import (
    HEADER,
    MAX_FRAME_BYTES,
    SESSION_ID_CHARS,
    Message,
    decode_msg,
    encode_msg,
    max_query_frame_bytes,
    message_from_dict,
    split_frames,
)

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
        values=st.lists(st.integers(0, 6), max_size=8).map(tuple),
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
        values=st.lists(st.integers(0, 6), min_size=1, max_size=1).map(tuple),
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
        values=st.lists(st.integers(0, 6), min_size=1, max_size=1).map(tuple),
    ),
)


def frame_with_body(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestRoundTrip:
    @given(MESSAGES)
    def test_encode_decode_identity(self, msg):
        assert decode_msg(encode_msg(msg)) == msg

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
            values=(modulus - 1,) * universe,
        )

    @pytest.mark.parametrize(
        "universe,modulus,parties,databases",
        [(1, 2, 2, 2), (37, 3, 3, 3), (1000, 5, 4, 12), (349_478, 11, 11, 9)],
    )
    def test_bound_is_the_widest_encoded_payload(self, universe, modulus, parties, databases):
        frame = encode_msg(self.widest(universe, modulus, parties, databases))
        assert len(frame) - HEADER.size == max_query_frame_bytes(
            universe, modulus, parties, databases
        )

    def test_one_coordinate_past_the_bound_does_not_encode(self):
        assert max_query_frame_bytes(524_219, 7, 7, 9) <= MAX_FRAME_BYTES
        assert max_query_frame_bytes(524_220, 7, 7, 9) > MAX_FRAME_BYTES
        encode_msg(self.widest(524_219, 7, 7, 9))
        with pytest.raises(ProtocolViolationError):
            encode_msg(self.widest(524_220, 7, 7, 9))


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

    def test_non_json_payload(self):
        with pytest.raises(ProtocolViolationError):
            decode_msg(frame_with_body(b"not json"))


class TestSplitFrames:
    MSG = Message("answer", "feed", "answer", (1, 2), (3, 0), 1, None, (4,))

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
        "session_id": "s",
        "phase": "query",
        "origin": [3, 0],
        "dest": [1, 2],
        "partition": 1,
        "target": None,
        "values": [0, 1, 2],
    }
    payload.update(overrides)
    return payload


class TestPayloadValidation:
    def test_valid_payload_parses(self):
        msg = message_from_dict(valid_payload())
        assert msg.origin == (3, 0)

    def test_unknown_type(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(type="gossip", phase="query"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(padding="xx"))

    def test_missing_field_rejected(self):
        payload = valid_payload()
        del payload["values"]
        with pytest.raises(ProtocolViolationError):
            message_from_dict(payload)

    def test_phase_must_match_type(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(phase="randomness"))

    def test_negative_value_rejected(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(values=[-1]))

    def test_bool_values_rejected(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(values=[True]))

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(origin=[1]))

    def test_zero_partition_rejected(self):
        with pytest.raises(ProtocolViolationError):
            message_from_dict(valid_payload(partition=0))

    def test_payload_is_plain_decimal_json(self):
        raw = encode_msg(message_from_dict(valid_payload()))
        body = raw[4:]
        parsed = json.loads(body.decode("utf-8"))
        assert parsed["values"] == [0, 1, 2]
