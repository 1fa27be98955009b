"""Probabilistic publicly verifiable (PV) signatures with recovery.

The Lee-Chang recovery equation of sdvs_mr with the bare generator as
blinding base, c = m * g**k2, so anyone holding the signer's public key
can recover the message and verify,

    recover  m = c * t**s * y_A**-r mod p,
    accept iff  r = H(m, t**-s * y_A**r).

Signing is sdvs_mr's _sign, and psv is one call to its _recover with
c * g**-k2.  This is the publicly verifiable first stage of the universal
designation flow; designation towards one verifier happens afterwards.

A PV signature is the one signature that is opened more than once: its
holder verifies it, and udvs.dsg opens it again for every designation.
So PVSignature holds t as a modmath.PerCallBase, whose comb the first
opening builds for t**q and every later opening reads, the designations'
openings in dsv_recover included, as dsg hands on the same t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSignature, NonInvertible
from .groupparams import GroupParams
from .modmath import PerCallBase, mod_inv
from .msghash import HashMode, Message, hash_to_zq
from .sdvs_mr import RecoveryNonces, _recover, _sign


@dataclass(frozen=True)
class PVSignature:
    t: int
    c: int
    r: int
    s: int

    def __post_init__(self):
        # Opened by psv, then again by each dsg (modmath.PerCallBase).
        object.__setattr__(self, "t", PerCallBase(self.t))


def psg(
    params: GroupParams,
    signer_secret: int,
    m: Message,
    nonces: RecoveryNonces,
    mode: HashMode = HashMode.PRODUCTION,
) -> PVSignature:
    """PV signature generation from nonces k1 in Z_q*, k2 in Z_q."""
    return PVSignature(*_sign(params, signer_secret, None, m, nonces, mode))


def psv(
    params: GroupParams,
    signer_public: int,
    sig: PVSignature,
    mode: HashMode = HashMode.PRODUCTION,
) -> Message:
    """PV verification: recover m from public values only, or raise."""
    return _recover(params, signer_public, sig, ("c",),
                    lambda unblind, _, __: sig.c * unblind % params.p, mode)


def psv_matches(
    params: GroupParams,
    signer_public: int,
    sig: PVSignature,
    m_claimed: Message,
    mode: HashMode = HashMode.PRODUCTION,
) -> bool:
    """Companion form that also compares against a caller-supplied message.

    For the signed message m, c * m**-1 = g**k2, so r = H(m, c * m**-1)
    holds; a claimed message that fails this check is refused after one
    inverse and one hash, without opening the signature.  psv runs only
    when the check holds, or when m_claimed has no inverse mod p.
    """
    try:
        u = sig.c * mod_inv(m_claimed.value, params.p) % params.p
    except NonInvertible:
        pass
    else:
        if hash_to_zq(m_claimed.value, u, params, mode) != sig.r:
            return False
    try:
        recovered = psv(params, signer_public, sig, mode)
    except InvalidSignature:
        return False
    return recovered.value == m_claimed.value
