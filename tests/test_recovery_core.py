"""Behaviour shared by the three users of the recovery core in sdvs_mr."""

import random
from dataclasses import replace

import pytest

from dvsig.errors import InvalidSignature
from dvsig.keys import keygen
from dvsig.msghash import HashMode, Message, encode_message, raw_message
from dvsig.pv_scheme import PVSignature, psg, psv
from dvsig.sdvs_mr import RecoveryNonces, RecoverySignature, mr_recover_verify, mr_sign
from dvsig.udvs import DVSignature, dsg, dsv_recover

STUB = HashMode.STUB

# Worked vectors that accept under y_A = 18, x_B = 5 on toy23 (see the scheme tests),
# each with the name of the field that carries the blinded message.
VECTORS = {
    "psv": (lambda toy, y, sig: psv(toy, y, sig, STUB),
            PVSignature(t=16, c=11, r=3, s=3), "c"),
    "mr_recover_verify": (lambda toy, y, sig: mr_recover_verify(toy, y, 5, sig, STUB),
                          RecoverySignature(t=16, c=21, r=3, s=3), "c"),
    "dsv_recover": (lambda toy, y, sig: dsv_recover(toy, y, 5, sig, STUB),
                    DVSignature(t=16, w=5, r=3, s=3, e=8), "w"),
}
VERIFIERS = {name: (lambda toy, y, verify=verify, sig=sig: verify(toy, y, sig))
             for name, (verify, sig, _) in VECTORS.items()}


# 0 and p would make y_A**r zero, which has no inverse; 5 lies outside the
# order-11 subgroup.  Each must reject, not fail with NonInvertible.
@pytest.mark.parametrize("y", [0, 23, 1, 5], ids=["zero", "p", "one", "non-subgroup"])
@pytest.mark.parametrize("verify", VERIFIERS.values(), ids=VERIFIERS.keys())
def test_degenerate_signer_key_rejects(toy, verify, y):
    with pytest.raises(InvalidSignature):
        verify(toy, y)


RANGE = "r or s outside [0, q)"
UNIT = "{} outside [1, p)"
T_SUBGROUP = "t is not a nontrivial order-q subgroup element"
E_SUBGROUP = "e is not an order-q subgroup element"
KEY = "signer public key outside [1, p)"
HASH = "hash check failed"

# Variants of the worked vectors as (fields of the signature, y_A, message).  A field
# named "blind" stands for c or w; a value of None adds 1 to it, which still lies in
# [1, p) but opens to a value whose hash is not r.  5 lies outside the order-11
# subgroup.  The messages were recorded before the three openers shared one core.
# With two faults the message names the one checked first: r and s, then the unit
# fields, then t, then e, then y_A, then the hash.
FAULTS = {
    "r=q": ({"r": 11}, 18, RANGE),
    "s=q": ({"s": 11}, 18, RANGE),
    "blind=0": ({"blind": 0}, 18, UNIT),
    "blind=p": ({"blind": 23}, 18, UNIT),
    "t=1": ({"t": 1}, 18, T_SUBGROUP),
    "t=5": ({"t": 5}, 18, T_SUBGROUP),
    "y_A=0": ({}, 0, KEY),
    "tampered": ({"blind": None}, 18, HASH),
    "r=q,t=5": ({"r": 11, "t": 5}, 18, RANGE),
    "s=q,blind=0": ({"s": 11, "blind": 0}, 18, RANGE),
    "blind=0,t=5": ({"blind": 0, "t": 5}, 18, UNIT),
    "t=5,y_A=0": ({"t": 5}, 0, T_SUBGROUP),
    "tampered,y_A=0": ({"blind": None}, 0, KEY),
}
UDVS_FAULTS = {
    "e=0": ({"e": 0}, 18, "e outside [1, p)"),
    "e=p": ({"e": 23}, 18, "e outside [1, p)"),
    "e=5": ({"e": 5}, 18, E_SUBGROUP),
    "w=0,e=0": ({"w": 0, "e": 0}, 18, "w outside [1, p)"),
    "e=0,t=5": ({"e": 0, "t": 5}, 18, "e outside [1, p)"),
    "t=5,e=5": ({"t": 5, "e": 5}, 18, T_SUBGROUP),
    "e=5,y_A=0": ({"e": 5}, 0, E_SUBGROUP),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", VECTORS)
def test_each_fault_rejects_with_its_message(toy, name, fault):
    verify, sig, blind = VECTORS[name]
    fields, y, message = FAULTS[fault]
    fields = {(blind if key == "blind" else key): value for key, value in fields.items()}
    if blind in fields and fields[blind] is None:
        fields[blind] = getattr(sig, blind) + 1
    assert verify(toy, 18, sig).value == 7
    with pytest.raises(InvalidSignature) as exc:
        verify(toy, y, replace(sig, **fields))
    assert str(exc.value) == message.format(blind)


@pytest.mark.parametrize("fault", UDVS_FAULTS)
def test_each_designation_fault_rejects_with_its_message(toy, fault):
    verify, sig, _ = VECTORS["dsv_recover"]
    fields, y, message = UDVS_FAULTS[fault]
    with pytest.raises(InvalidSignature) as exc:
        verify(toy, y, replace(sig, **fields))
    assert str(exc.value) == message


@pytest.mark.parametrize("payload", [None, b"ok"], ids=["bare-residue", "payload"])
def test_openers_return_what_they_recover(midsize, payload):
    """On a group that frames payloads a bare residue comes back bare, a payload decoded."""
    rng = random.Random(5)
    signer, verifier = keygen(midsize, rng), keygen(midsize, rng)
    m = raw_message(7, midsize) if payload is None else encode_message(payload, midsize)
    nonces = RecoveryNonces(3, 4)
    pv_sig = psg(midsize, signer.x, m, nonces)
    opened = [
        psv(midsize, signer.y, pv_sig),
        mr_recover_verify(midsize, signer.y, verifier.x,
                          mr_sign(midsize, signer.x, verifier.y, m, nonces)),
        dsv_recover(midsize, signer.y, verifier.x, dsg(midsize, signer.y, verifier.y, pv_sig, 5)),
    ]
    assert opened == [Message(m.value, payload)] * 3
