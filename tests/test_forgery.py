"""What a forger needs: signatures made without the signer's secret, pinned as exact counts.

The recovery schemes open their commitment with t**s * y_A**-r = g**-k2
(see sdvs_mr), and the signer picks t.  So anyone who holds y_A picks z
in Z_q and s in Z_q* and sets, with exponents mod q,

    u = g**z,   r = H(m, u),   t = g**(-z/s) * y_A**(r/s),

which gives t**s * y_A**-r = g**-z = u**-1, and r = H(m, u) holds for
any m.  Lee-Chang then takes c = m * y_B**z, PV takes c = m * u, and
UDVS designates that forged PV signature with dsg, which needs public
keys only.  Saeednia verifies c = (g**s * y_A**r)**(t * x_B), so anyone
who holds K = y_B**x_A, which is neither party's secret (Lipmaa, Wang &
Bao, ICALP 2005, delegation), picks a in Z_q and b in Z_q* and sets
c = y_B**a * K**b, r = H(m, c), t = b/r and s = a/t.  No forger that
needs no secret is known here for Saeednia, and none is claimed absent.

Each forger runs on midsize from random.Random(1), and once at the full
2048/256 bits, with the production hash, and the designated verifier
opens every forgery with its secret.  As a control, the same forgeries
are opened under a third party's signer key.  On toy23 the repo's own
verifier-side simulator, sdvs_mr._simulate, needs y_A alone, and with
c = m * u its PV forgeries form exactly the multiset of real PV
signatures.  No scheme is changed here.  Criterion 4 of the acceptance
suite draws uniformly random tuples, so it says nothing about these
forgers.
"""

import random

import pytest

from dvsig.errors import InvalidSignature
from dvsig.keys import keygen
from dvsig.msghash import HashMode, encode_message, hash_to_zq, payload_capacity, raw_message
from dvsig.oracle import (
    SCHEME_LEECHANG, SCHEME_PV, SCHEME_SAEEDNIA, SCHEME_UDVS, SCHEMES, SignatureMultiset,
    enumerate_real,
)
from dvsig.pv_scheme import PVSignature
from dvsig.sdvs_mr import RecoverySignature, _simulate
from dvsig.sdvs_saeednia import SaeedniaSignature
from dvsig.udvs import dsg

PROD = HashMode.PRODUCTION
FORGERIES = 200


def forged_opening(params, y_a, m, rng):
    """(t, u, r, s, z): u = g**z, t**s * y_A**-r = u**-1 and r = H(m, u), from y_A alone."""
    p, q = params.p, params.q
    z, s = rng.randrange(q), rng.randrange(1, q)
    u = pow(params.g, z, p)
    r = hash_to_zq(m.value, u, params, PROD)
    s_inv = pow(s, -1, q)
    t = pow(params.g, -z * s_inv % q, p) * pow(y_a, r * s_inv % q, p) % p
    return t, u, r, s, z


def forge_leechang(params, public, m, rng):
    t, _, r, s, z = forged_opening(params, public["y_a"], m, rng)
    return RecoverySignature(t=t, c=m.value * pow(public["y_b"], z, params.p) % params.p, r=r, s=s)


def forge_pv(params, public, m, rng):
    t, u, r, s, _ = forged_opening(params, public["y_a"], m, rng)
    return PVSignature(t=t, c=m.value * u % params.p, r=r, s=s)


def forge_udvs(params, public, m, rng):
    pv_sig = forge_pv(params, public, m, rng)
    return dsg(params, public["y_a"], public["y_b"], pv_sig, rng.randrange(params.q), PROD)


def forge_saeednia(params, public, m, rng):
    p, q = params.p, params.q
    r = 0
    while r == 0:  # t = b/r needs r != 0
        a, b = rng.randrange(q), rng.randrange(1, q)
        r = hash_to_zq(m.value, pow(public["y_b"], a, p) * pow(public["k"], b, p) % p, params, PROD)
    t = b * pow(r, -1, q) % q
    return SaeedniaSignature(r=r, s=a * pow(t, -1, q) % q, t=t)


FORGERS = {
    SCHEME_LEECHANG: forge_leechang,  # reads y_A and y_B
    SCHEME_PV: forge_pv,  # reads y_A
    SCHEME_UDVS: forge_udvs,  # reads y_A and y_B
    SCHEME_SAEEDNIA: forge_saeednia,  # reads y_B and K = y_B**x_A
}


def opens_to(params, signer, verifier, m, sig, scheme):
    """Whether the verifier accepts sig as signer's signature on m (the recovered m for the
    recovery schemes)."""
    try:
        return SCHEMES[scheme].open(params, signer, verifier, m, sig, PROD) == m
    except InvalidSignature:
        return False


def forge_and_open(params, scheme, forgeries, rng):
    """(accepted by the designated verifier, accepted under a third party's signer key)."""
    signer, verifier, third = (keygen(params, rng) for _ in range(3))
    public = {"y_a": signer.y, "y_b": verifier.y, "k": pow(verifier.y, signer.x, params.p)}
    forge = FORGERS[scheme]
    accepted = under_third = 0
    for _ in range(forgeries):
        m = encode_message(rng.randbytes(rng.randrange(payload_capacity(params) + 1)), params)
        sig = forge(params, public, m, rng)
        accepted += opens_to(params, signer, verifier, m, sig, scheme)
        under_third += opens_to(params, third, verifier, m, sig, scheme)
    return accepted, under_third


@pytest.mark.parametrize("scheme", list(FORGERS))
def test_a_public_forger_is_accepted_every_time(midsize, scheme):
    assert forge_and_open(midsize, scheme, FORGERIES, random.Random(1)) == (FORGERIES, 0)


@pytest.mark.parametrize("scheme", list(FORGERS))
def test_a_public_forger_is_accepted_at_full_size(big, scheme):
    assert forge_and_open(big, scheme, 1, random.Random(1)) == (1, 0)


def test_simulated_pv_forgeries_are_exactly_the_real_multiset(toy, toy_signer, toy_verifier):
    """For every message on toy23, _simulate over all (w1, w2), with c = m * u, gives the
    multiset of PV signatures that the signer makes over all (k1, k2): the forgeries look
    exactly like real signatures."""
    p, q = toy.p, toy.q
    for value in range(1, p):
        m = raw_message(value, toy)
        forged = SignatureMultiset(SCHEME_PV)
        for w1 in range(1, q):
            for w2 in range(q):
                t, u, r, s, _ = _simulate(toy, toy_signer.y, m, w1, w2, HashMode.STUB)
                forged.add(PVSignature(t=t, c=value * u % p, r=r, s=s))
        real = enumerate_real(toy, toy_signer, toy_verifier, m, SCHEME_PV)
        assert forged.counts == real.counts and forged.total == (q - 1) * q, value
