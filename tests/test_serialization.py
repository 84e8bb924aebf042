"""Wire serialization: round-trips and malformed-input handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPF
from repro.dpf.naive import NaiveShare
from repro.pir.messages import DPFQuery, NaiveQuery, PIRAnswer
from repro.pir.serialization import (
    deserialize_answer,
    deserialize_key,
    deserialize_query,
    serialize_answer,
    serialize_key,
    serialize_query,
    wire_sizes,
)


@pytest.fixture(scope="module")
def dpf_key():
    return DPF(domain_bits=12, seed=31).gen(1000, 1)[0]


class TestKeyRoundTrip:
    def test_round_trip_preserves_key(self, dpf_key):
        restored = deserialize_key(serialize_key(dpf_key))
        assert restored == dpf_key

    def test_round_trip_key_still_evaluates(self):
        dpf = DPF(domain_bits=9, seed=7)
        key0, key1 = dpf.gen(300, 1)
        restored0 = deserialize_key(serialize_key(key0))
        restored1 = deserialize_key(serialize_key(key1))
        combined = dpf.eval_full(restored0) ^ dpf.eval_full(restored1)
        assert combined[300] == 1 and int(combined.sum()) == 1

    def test_serialized_size_matches_key_estimate(self, dpf_key):
        blob = serialize_key(dpf_key)
        # The in-memory estimate and the wire size agree to within the header.
        assert abs(len(blob) - dpf_key.size_bytes) < 32

    def test_truncated_blob_rejected(self, dpf_key):
        blob = serialize_key(dpf_key)
        with pytest.raises(ProtocolError):
            deserialize_key(blob[:10])
        with pytest.raises(ProtocolError):
            deserialize_key(blob[:-3])

    def test_wrong_magic_rejected(self, dpf_key):
        blob = bytearray(serialize_key(dpf_key))
        blob[0:2] = b"ZZ"
        with pytest.raises(ProtocolError):
            deserialize_key(bytes(blob))

    @settings(max_examples=20, deadline=None)
    @given(
        domain_bits=st.integers(min_value=1, max_value=16),
        output_bits=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, domain_bits, output_bits, seed):
        dpf = DPF(domain_bits, output_bits=output_bits, seed=seed)
        beta = min(3, (1 << output_bits) - 1) or 1
        key0, _ = dpf.gen(seed % dpf.domain_size, beta)
        assert deserialize_key(serialize_key(key0)) == key0


class TestQueryRoundTrip:
    def test_dpf_query(self, dpf_key):
        query = DPFQuery(query_id=17, server_id=0, key=dpf_key, num_records=4000)
        restored = deserialize_query(serialize_query(query))
        assert isinstance(restored, DPFQuery)
        assert restored.query_id == 17
        assert restored.server_id == 0
        assert restored.num_records == 4000
        assert restored.key == dpf_key

    def test_naive_query(self):
        bits = np.random.default_rng(0).integers(0, 2, 100, dtype=np.uint8)
        query = NaiveQuery(
            query_id=3, server_id=1, share=NaiveShare(server_id=1, bits=bits), num_records=100
        )
        restored = deserialize_query(serialize_query(query))
        assert isinstance(restored, NaiveQuery)
        assert np.array_equal(restored.share.bits, bits)

    def test_truncated_query_rejected(self, dpf_key):
        query = DPFQuery(query_id=1, server_id=1, key=dpf_key, num_records=4000)
        with pytest.raises(ProtocolError):
            deserialize_query(serialize_query(query)[:5])

    def test_unknown_magic_rejected(self, dpf_key):
        blob = bytearray(serialize_query(DPFQuery(query_id=1, server_id=0, key=dpf_key, num_records=10)))
        blob[0:2] = b"XX"
        with pytest.raises(ProtocolError):
            deserialize_query(bytes(blob))


class TestAnswerRoundTrip:
    def test_round_trip(self):
        answer = PIRAnswer(query_id=9, server_id=1, payload=b"\xab" * 32, simulated_seconds=0.125)
        restored = deserialize_answer(serialize_answer(answer))
        assert restored.query_id == 9
        assert restored.server_id == 1
        assert restored.payload == b"\xab" * 32
        assert restored.simulated_seconds == pytest.approx(0.125)

    def test_round_trip_without_timing(self):
        answer = PIRAnswer(query_id=0, server_id=0, payload=b"x")
        restored = deserialize_answer(serialize_answer(answer))
        assert restored.simulated_seconds is None

    def test_corrupted_length_rejected(self):
        blob = bytearray(serialize_answer(PIRAnswer(query_id=0, server_id=0, payload=b"abcd")))
        with pytest.raises(ProtocolError):
            deserialize_answer(bytes(blob[:-1]))


class TestEndToEndOverTheWire:
    def test_full_protocol_through_serialization(self, small_db):
        """Client and servers exchange only serialized bytes."""
        from repro.dpf.prf import make_prg
        from repro.pir.client import PIRClient
        from repro.pir.server import PIRServer

        client = PIRClient(small_db.num_records, small_db.record_size, seed=3, prg=make_prg("numpy"))
        servers = [PIRServer(small_db, server_id=i, prg=make_prg("numpy")) for i in range(2)]
        index = 444
        wire_queries = [serialize_query(q) for q in client.query(index)]
        wire_answers = []
        for blob in wire_queries:
            query = deserialize_query(blob)
            wire_answers.append(serialize_answer(servers[query.server_id].answer(query)))
        answers = [deserialize_answer(blob) for blob in wire_answers]
        assert client.reconstruct(answers) == small_db.record(index)

    def test_wire_sizes_helper(self, dpf_key):
        query = DPFQuery(query_id=0, server_id=0, key=dpf_key, num_records=4000)
        answer = PIRAnswer(query_id=0, server_id=0, payload=b"\x00" * 32)
        upload, download = wire_sizes(query, answer)
        assert upload > download
        assert download == len(serialize_answer(answer))


def _valid_blobs():
    dpf_query = DPFQuery(
        query_id=7, server_id=1, key=DPF(domain_bits=6, seed=3).gen(40, 1)[1], num_records=40
    )
    bits = np.random.default_rng(4).integers(0, 2, 37, dtype=np.uint8)
    naive_query = NaiveQuery(
        query_id=8, server_id=0, share=NaiveShare(server_id=0, bits=bits), num_records=37
    )
    answer = PIRAnswer(query_id=9, server_id=1, payload=b"\x01" * 24, simulated_seconds=2e-6)
    return [serialize_query(dpf_query), serialize_query(naive_query), serialize_answer(answer)]


VALID_BLOBS = _valid_blobs()

#: Arbitrary bytes, valid headers over arbitrary bodies, and valid messages
#: truncated or with one bit flipped.
_hostile_blobs = st.one_of(
    st.binary(max_size=400),
    st.tuples(st.sampled_from([b"DQ", b"NQ", b"PA", b"DK"]), st.binary(max_size=400)).map(
        lambda parts: parts[0] + b"\x01" + parts[1]
    ),
    st.tuples(st.sampled_from(VALID_BLOBS), st.integers(min_value=0)).map(
        lambda case: case[0][: case[1] % (len(case[0]) + 1)]
    ),
    st.tuples(st.sampled_from(VALID_BLOBS), st.integers(min_value=0)).map(
        lambda case: _flip_bit(case[0], case[1] % (8 * len(case[0])))
    ),
)


def _flip_bit(blob: bytes, bit: int) -> bytes:
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class TestWireFuzz:
    """Hostile bytes may only ever surface as :class:`ProtocolError`."""

    @settings(max_examples=400, deadline=None)
    @given(blob=_hostile_blobs)
    def test_deserialize_query_raises_only_protocol_error(self, blob):
        try:
            deserialize_query(blob)
        except ProtocolError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(blob=_hostile_blobs)
    def test_deserialize_answer_raises_only_protocol_error(self, blob):
        try:
            deserialize_answer(blob)
        except ProtocolError:
            pass

    def test_valid_blobs_still_decode(self):
        dpf_blob, naive_blob, answer_blob = VALID_BLOBS
        assert isinstance(deserialize_query(dpf_blob), DPFQuery)
        assert isinstance(deserialize_query(naive_blob), NaiveQuery)
        assert deserialize_answer(answer_blob).payload == b"\x01" * 24
