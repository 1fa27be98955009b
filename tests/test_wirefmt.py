import base64
import random

import pytest
from hypothesis import given, settings, strategies as st

from dvsig.errors import Malformed
from dvsig.groupparams import TOY23, GroupParams
from dvsig.keys import PublicKey, SecretKey
from dvsig.pv_scheme import PVSignature
from dvsig.sdvs_mr import RecoverySignature
from dvsig.sdvs_saeednia import SaeedniaSignature
from dvsig.udvs import DVSignature
from dvsig import wirefmt


def test_params_blob_layout():
    blob = wirefmt.encode(TOY23)
    assert blob[:7] == bytes([0x01, 0x10, 0, 0, 0, 1, 23])
    assert blob == bytes([0x01, 0x10, 0, 0, 0, 1, 23, 0, 0, 0, 1, 11, 0, 0, 0, 1, 4])


def test_scheme_kind_bytes():
    assert wirefmt.encode(SaeedniaSignature(1, 2, 3))[1] == 0x01
    assert wirefmt.encode(RecoverySignature(2, 3, 4, 5))[1] == 0x02
    assert wirefmt.encode(PVSignature(2, 3, 4, 5))[1] == 0x03
    assert wirefmt.encode(DVSignature(2, 3, 4, 5, 6))[1] == 0x04
    assert wirefmt.encode(PublicKey(9))[1] == 0x11
    assert wirefmt.encode(SecretKey(9))[1] == 0x12


def test_zero_encodes_with_empty_magnitude():
    blob = wirefmt.encode(SaeedniaSignature(r=0, s=5, t=3))
    assert blob[2:6] == bytes(4)  # length 0, no magnitude bytes
    assert wirefmt.decode(blob) == SaeedniaSignature(r=0, s=5, t=3)


def test_round_trip_every_kind():
    values = [
        TOY23,
        GroupParams(p=2**2047 + 9, q=2**255 + 95, g=12345),
        PublicKey(18),
        SecretKey(5),
        SaeedniaSignature(2, 2, 3),
        RecoverySignature(16, 21, 3, 3),
        PVSignature(16, 11, 3, 3),
        DVSignature(16, 5, 3, 3, 8),
    ]
    for value in values:
        assert wirefmt.decode(wirefmt.encode(value)) == value


def test_round_trip_thousand_random_signatures():
    rng = random.Random(31337)
    builders = [
        lambda: SaeedniaSignature(rng.getrandbits(256), rng.getrandbits(256), rng.getrandbits(16)),
        lambda: RecoverySignature(rng.getrandbits(2048), rng.getrandbits(2048),
                                  rng.getrandbits(256), rng.getrandbits(256)),
        lambda: PVSignature(rng.getrandbits(2048), rng.getrandbits(2048),
                            rng.getrandbits(256), rng.getrandbits(256)),
        lambda: DVSignature(rng.getrandbits(2048), rng.getrandbits(2048),
                            rng.getrandbits(256), rng.getrandbits(256), rng.getrandbits(2048)),
    ]
    for i in range(1000):
        value = builders[i % len(builders)]()
        assert wirefmt.decode(wirefmt.encode(value)) == value


@given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
def test_encoding_injective(a, b):
    x = wirefmt.encode(PublicKey(a))
    y = wirefmt.encode(PublicKey(b))
    assert (x == y) == (a == b)


def test_decode_rejects_unknown_version():
    blob = bytearray(wirefmt.encode(TOY23))
    blob[0] = 0x02
    with pytest.raises(Malformed):
        wirefmt.decode(bytes(blob))


def test_decode_rejects_unknown_kind():
    blob = bytearray(wirefmt.encode(TOY23))
    blob[1] = 0x7F
    with pytest.raises(Malformed):
        wirefmt.decode(bytes(blob))


def test_decode_rejects_truncation_and_trailing():
    blob = wirefmt.encode(TOY23)
    for cut in range(len(blob)):
        with pytest.raises(Malformed):
            wirefmt.decode(blob[:cut])
    with pytest.raises(Malformed):
        wirefmt.decode(blob + b"\x00")


def test_decode_rejects_non_minimal_magnitude():
    # re-frame p = 23 as the two-byte magnitude 0x00 0x17
    blob = wirefmt.encode(TOY23)
    padded = blob[:2] + bytes([0, 0, 0, 2, 0, 23]) + blob[7:]
    with pytest.raises(Malformed):
        wirefmt.decode(padded)


def test_armor_round_trip():
    text = wirefmt.armor(TOY23)
    assert text.startswith("-----BEGIN DVS PARAMS-----\n")
    assert text.endswith("-----END DVS PARAMS-----\n")
    assert wirefmt.loads(text.encode()) == TOY23


def test_armor_labels_per_kind():
    assert "DVS PUBLIC KEY" in wirefmt.armor(PublicKey(18))
    assert "DVS SECRET KEY" in wirefmt.armor(SecretKey(5))
    assert "DVS SIGNATURE" in wirefmt.armor(PVSignature(16, 11, 3, 3))


def test_dearmor_rejects_mismatched_labels():
    text = wirefmt.armor(TOY23).replace("-----END DVS PARAMS-----", "-----END DVS SIGNATURE-----")
    with pytest.raises(Malformed):
        wirefmt.dearmor(text)


def test_dearmor_rejects_unknown_label():
    text = wirefmt.armor(TOY23).replace("DVS PARAMS", "DVS GARBAGE")
    with pytest.raises(Malformed):
        wirefmt.dearmor(text)


def test_dearmor_rejects_bad_base64():
    text = "-----BEGIN DVS PARAMS-----\n!!!!\n-----END DVS PARAMS-----\n"
    with pytest.raises(Malformed):
        wirefmt.dearmor(text)


def test_loads_expected_type_check():
    with pytest.raises(Malformed):
        wirefmt.loads_expected(wirefmt.encode(PublicKey(18)), GroupParams)
    assert wirefmt.loads_expected(wirefmt.encode(TOY23), GroupParams) == TOY23


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_decode_never_crashes_on_noise(noise):
    try:
        value = wirefmt.decode(noise)
    except Malformed:
        return
    # anything that decodes must re-encode to the identical bytes
    assert wirefmt.encode(value) == noise


KINDS = [TOY23, PublicKey(18), SecretKey(5), SaeedniaSignature(2, 2, 3),
         RecoverySignature(16, 21, 3, 3), PVSignature(16, 11, 3, 3), DVSignature(16, 5, 3, 3, 8)]
LABELS = ["DVS PARAMS", "DVS PUBLIC KEY", "DVS SECRET KEY", "DVS SIGNATURE"]


@pytest.mark.parametrize("value", KINDS, ids=lambda value: type(value).__name__)
def test_loads_rejects_a_blob_under_another_kinds_label(value):
    text = wirefmt.armor(value)
    own = next(label for label in LABELS if f"-----BEGIN {label}-----" in text)
    assert wirefmt.loads(text.encode()) == value
    for label in LABELS:
        if label != own:
            with pytest.raises(Malformed, match="must be armored as"):
                wirefmt.loads(text.replace(own, label).encode())


def test_loads_rejects_broken_armor():
    body = base64.b64encode(wirefmt.encode(TOY23)).decode()
    with pytest.raises(Malformed, match="too short"):
        wirefmt.loads(b"-----BEGIN DVS PARAMS-----\n")
    with pytest.raises(Malformed, match="missing BEGIN"):
        wirefmt.dearmor(f"{body}\n-----END DVS PARAMS-----\n")
    with pytest.raises(Malformed, match="missing END"):
        wirefmt.loads(f"-----BEGIN DVS PARAMS-----\n{body}\n".encode())
    with pytest.raises(Malformed, match="not ASCII"):
        wirefmt.loads("-----BEGIN DVS PARAMS-----\n\u00e9\n-----END DVS PARAMS-----\n".encode())


def test_encode_rejects_what_has_no_wire_form():
    with pytest.raises(ValueError, match="non-negative"):
        wirefmt.encode(PublicKey(-1))
    for encoder in (wirefmt.encode, wirefmt.armor):
        with pytest.raises(TypeError, match="cannot encode"):
            encoder(object())
