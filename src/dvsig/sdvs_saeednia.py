"""Saeednia-style strong designated verifier signatures.

The signer commits to c = y_B**k mod p, a value only reachable with the
verifier's key material, and publishes (r, s, t) with

    r = H(m, c),    s = k * t**-1 - r * x_A  (mod q).

Verification recomputes c = (g**s * y_A**r)**(t * x_B) mod p and so
needs the verifier's secret x_B: nobody else can even check validity.
It computes c as g**(s*t*x_B) * y_A**(r*t*x_B), exponents mod q, so
that both powers read the fixed-base tables of g and y_A
(modmath.FixedBase).  That equals the textbook form only for a signer
key in the order-q subgroup.  For a key y_A*h, with h of small order l,
every accepted guess would hand its signer (r*t*x_B mod q) mod l for a
known r and t, samples from which lattice reduction recovers all of x_B.
So sds_verify first asks keys.in_subgroup, and rejects before x_B
reaches any power: two exponentiations for a keys.SubgroupKey, as keygen
and the CLI make, and three for any other key, where the textbook form
takes three of fresh bases.

The verifier can also simulate signatures with the same distribution
from randomness (s', r'), which is what makes transcripts worthless to
third parties.

A signature with r = 0 would verify but cannot be simulated (the
simulator inverts r), so signing refuses r = 0 for explicit nonces and
resamples in random mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DegenerateHash, InvalidNonce, InvalidRandomness
from .groupparams import GroupParams
from .keys import in_subgroup
from .modmath import ZQ, ZQ_STAR, mod_exp, mod_inv, pow_in_subgroup, sample_space
from .msghash import HashMode, Message, hash_to_zq


@dataclass(frozen=True)
class SaeedniaSignature:
    r: int
    s: int
    t: int


@dataclass(frozen=True)
class SaeedniaNonces:
    """Per-signature randomness: k in Z_q, t in Z_q*."""

    k: int
    t: int


def sds_sign(
    params: GroupParams,
    signer_secret: int,
    verifier_public: int,
    m: Message,
    nonces: SaeedniaNonces,
    mode: HashMode = HashMode.PRODUCTION,
) -> SaeedniaSignature:
    """Sign m towards the verifier whose public element is verifier_public."""
    q = params.q
    k = nonces.k % q
    t = nonces.t % q
    if t == 0:
        raise InvalidNonce("nonce t must be nonzero mod q")
    c = mod_exp(verifier_public, k, params.p)
    r = hash_to_zq(m.value, c, params, mode)
    if r == 0:
        raise DegenerateHash("hash hit r = 0; pick fresh nonces")
    s = (k * mod_inv(t, q) - r * signer_secret) % q
    return SaeedniaSignature(r=r, s=s, t=t)


def sds_sign_random(
    params: GroupParams,
    signer_secret: int,
    verifier_public: int,
    m: Message,
    rng: random.Random,
    mode: HashMode = HashMode.PRODUCTION,
) -> SaeedniaSignature:
    """Sign with fresh nonces (k, t), resampling while the hash is degenerate."""
    return sample_space(params.q, (ZQ, ZQ_STAR), rng, lambda draw: sds_sign(
        params, signer_secret, verifier_public, m, SaeedniaNonces(*draw), mode))


def sds_verify(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    m: Message,
    sig: SaeedniaSignature,
    mode: HashMode = HashMode.PRODUCTION,
) -> bool:
    """Check r = H(m, c) for c = g**(s*t*x_B) * y_A**(r*t*x_B) mod p; out-of-range fields fail.

    c is the textbook (g**s * y_A**r)**(t * x_B) for a signer key in the
    order-q subgroup, so a key that keys.in_subgroup refuses fails before
    x_B reaches any power.  A signer key outside [1, p) fails, as it would
    otherwise verify as its residue mod p does: one key, one encoding.
    """
    p, q = params.p, params.q
    if not (0 <= sig.r < q and 0 <= sig.s < q and 1 <= sig.t < q and 1 <= signer_public < p
            and in_subgroup(params, signer_public)):
        return False
    tx = sig.t * verifier_secret
    g_part = pow_in_subgroup(params.g, sig.s * tx, p, q)
    c = g_part * pow_in_subgroup(signer_public, sig.r * tx, p, q) % p
    return hash_to_zq(m.value, c, params, mode) == sig.r


def sds_simulate(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    m: Message,
    s_rand: int,
    r_rand: int,
    mode: HashMode = HashMode.PRODUCTION,
) -> SaeedniaSignature:
    """Verifier-side transcript from randomness s' in Z_q, r' in Z_q*.

    The intermediates (s', r', and the bridging factor) are transient;
    only the final (r, s, t) ever leaves this function.
    """
    q = params.q
    s_rand %= q
    r_rand %= q
    if r_rand == 0:
        raise InvalidRandomness("simulator randomness r' must be nonzero mod q")
    c = mod_exp(params.g, s_rand, params.p) * mod_exp(signer_public, r_rand, params.p) % params.p
    r = hash_to_zq(m.value, c, params, mode)
    if r == 0:
        raise DegenerateHash("hash hit r = 0; pick fresh simulator randomness")
    ell = r_rand * mod_inv(r, q) % q
    s = s_rand * mod_inv(ell, q) % q
    t = ell * mod_inv(verifier_secret, q) % q
    return SaeedniaSignature(r=r, s=s, t=t)


def sds_simulate_random(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    m: Message,
    rng: random.Random,
    mode: HashMode = HashMode.PRODUCTION,
) -> SaeedniaSignature:
    """Simulate with fresh randomness (s', r'), resampling while the hash is degenerate."""
    return sample_space(params.q, (ZQ, ZQ_STAR), rng, lambda draw: sds_simulate(
        params, signer_public, verifier_secret, m, *draw, mode))
