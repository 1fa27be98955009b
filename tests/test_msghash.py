import hashlib
import json
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from conftest import src_env
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


def run_python(code, *argv, stdin=None):
    """The last stdout line of a fresh interpreter running code, as JSON."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], capture_output=True, text=True,
                          env=src_env(), input=stdin, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_cli_process_signs_and_opens_without_loading_hashlib(tmp_path):
    """hashlib would load OpenSSL's libcrypto; the production hash comes from the builtin
    SHA-256 module, so a CLI process that signs and opens never imports it."""
    code = """
        import json, sys
        from dvsig.cli import run
        d = sys.argv[1]
        codes = [run(argv.split()) for argv in (
            f"params gen --preset toy23 --out {d}/toy.params",
            f"keygen --params {d}/toy.params --seed 1 --out-secret {d}/a.sec --out-public {d}/a.pub",
            f"keygen --params {d}/toy.params --seed 2 --out-secret {d}/b.sec --out-public {d}/b.pub",
            f"sign --scheme saeednia --params {d}/toy.params --key {d}/a.sec --verifier-key {d}/b.pub"
            f" --raw-residue 7 --seed 3 --out {d}/m.ssig",
            f"verify --scheme saeednia --params {d}/toy.params --key {d}/b.sec --signer-key {d}/a.pub"
            f" --raw-residue 7 --in {d}/m.ssig",
        )]
        print(json.dumps([codes, sorted({"hashlib", "_hashlib"} & set(sys.modules))]))
    """
    assert run_python(code, str(tmp_path)) == [[0, 0, 0, 0, 0], []]


def known_answer(m, u, params):
    """SHA-256 of the tag, then a 4-byte big-endian length and the big-endian magnitude of m,
    then the same for u, reduced mod q."""
    data = b"DVS-H1"
    for value in (m, u):
        magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
        data += len(magnitude).to_bytes(4, "big") + magnitude
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % params.q


def edge_pairs(params):
    top = params.p - 1
    return [(1, 1), (1, top), (top, 1), (top, top), (321, 17), (top // 3, top // 7)]


def test_production_hash_matches_the_documented_encoding(big):
    for m, u in edge_pairs(big):
        assert hash_to_zq(m, u, big, HashMode.PRODUCTION) == known_answer(m, u, big), (m, u)


def test_hashlib_fallback_gives_the_same_values(big):
    """Without the builtin SHA-256 module, msghash imports sha256 from hashlib instead."""
    code = """
        import json, sys
        sys.modules["_sha256"] = sys.modules["_sha2"] = None
        import hashlib
        from dvsig import msghash
        from dvsig.groupparams import GroupParams
        p, q, g, pairs = json.load(sys.stdin)
        params = GroupParams(p=p, q=q, g=g)
        values = [msghash.hash_to_zq(m, u, params, msghash.HashMode.PRODUCTION) for m, u in pairs]
        print(json.dumps([msghash.sha256 is hashlib.sha256, values]))
    """
    pairs = edge_pairs(big)
    fallback, values = run_python(code, stdin=json.dumps([big.p, big.q, big.g, pairs]))
    assert fallback
    assert values == [hash_to_zq(m, u, big, HashMode.PRODUCTION) for m, u in pairs]
