import pytest
from hypothesis import given, strategies as st

from dvsig.errors import MalformedEncoding, MessageTooLong, OutOfRange
from dvsig.msghash import (
    HashMode,
    Message,
    decode_message,
    encode_message,
    hash_to_zq,
    payload_capacity,
    raw_message,
    recovered_message,
    supports_payload,
)


def test_capacity_values(toy, big):
    assert payload_capacity(big) == 254
    assert payload_capacity(toy) == -2
    assert supports_payload(big)
    assert not supports_payload(toy)


def test_encode_single_byte(big):
    msg = encode_message(b"A", big)
    assert msg.value == 0x0141 == 321
    assert msg.payload == b"A"


def test_encode_empty_payload(big):
    assert encode_message(b"", big).value == 1


def test_encode_rejects_oversized_payload(big):
    with pytest.raises(MessageTooLong):
        encode_message(b"\x00" * 300, big)
    encode_message(b"\x00" * 254, big)  # at capacity is fine


def test_decode_inverts_encode(big):
    assert decode_message(321, big) == b"A"
    assert decode_message(1, big) == b""


def test_decode_rejects_unframed_residue(big):
    with pytest.raises(MalformedEncoding):
        decode_message(7, big)
    with pytest.raises(MalformedEncoding):
        decode_message(0, big)


def test_raw_residue_mode_passthrough(toy):
    msg = raw_message(7, toy)
    assert msg.value == 7 and msg.payload is None
    rec = recovered_message(7, toy)  # toy groups auto-select raw mode
    assert rec.value == 7 and rec.payload is None
    with pytest.raises(OutOfRange):
        raw_message(0, toy)
    with pytest.raises(OutOfRange):
        raw_message(toy.p, toy)


def test_recovered_message_decodes_only_framed_residues(midsize):
    assert recovered_message(encode_message(b"A", midsize).value, midsize) == Message(321, b"A")
    assert recovered_message(1, midsize) == Message(1, b"")
    # a residue without the prefix byte stays a bare residue instead of raising
    assert recovered_message(7, midsize) == Message(7)
    assert recovered_message(0x0201, midsize) == Message(0x0201)


@given(st.binary(max_size=254))
def test_round_trip_identity(big, payload):
    msg = encode_message(payload, big)
    assert 1 <= msg.value < big.p
    assert decode_message(msg.value, big) == payload


@given(st.binary(max_size=6))
def test_round_trip_identity_midsize(midsize, payload):
    msg = encode_message(payload, midsize)
    assert decode_message(msg.value, midsize) == payload


def test_stub_hash_values(toy):
    assert hash_to_zq(7, 18, toy, HashMode.STUB) == 3  # 25 mod 11
    assert hash_to_zq(0, 0, toy, HashMode.STUB) == 0


@given(st.integers(min_value=0, max_value=22), st.integers(min_value=0, max_value=22))
def test_both_modes_stay_in_range(toy, m, u):
    for mode in HashMode:
        assert 0 <= hash_to_zq(m, u, toy, mode) < toy.q


def test_production_hash_deterministic_and_sensitive(big):
    a = hash_to_zq(321, 17, big, HashMode.PRODUCTION)
    b = hash_to_zq(321, 17, big, HashMode.PRODUCTION)
    assert a == b
    assert hash_to_zq(321, 18, big, HashMode.PRODUCTION) != a
    assert hash_to_zq(322, 17, big, HashMode.PRODUCTION) != a
