"""Lee-Chang strong designated verifier signatures with message recovery,
and the recovery core that the PV and UDVS schemes share with it.

The three schemes are one equation with different blinding.  From
nonces k1 in Z_q*, k2 in Z_q and a blinding base B,

    t = g**k1,  c = m * B**k2,  r = H(m, g**k2),
    s = k1**-1 * (x_A * r - k2)  (mod q),

and the signer's public key opens the commitment,

    t**s * y_A**-r = g**-k2,   so   u = g**k2 is its inverse.

Lee-Chang blinds with B = y_B, so only the designated verifier can
unfold the message:

    recover  m = c * (g**-k2)**x_B mod p,
    accept iff  r = H(m, u).

PV (pv_scheme) blinds with B = g; UDVS (udvs) re-blinds a PV signature
towards y_B.  The private helpers below are the shared core: _sign,
_recover (every check of the three verifiers, in one order, around one
opening of g**-k2 from one t**s, one y_A**r and one modular inverse)
and _simulate.  _recover powers t to q and to s and hands it to the
unblinding, where Lee-Chang raises it to s*x_B; it powers the UDVS e to
q, then to x_B.  So it holds both as modmath.PerCallBase, whose comb
the first power builds and every later power reads.  A plain-int field
is marked for the length of the call; a PV signature's t is already
marked, so its comb also serves every later opening of that signature
and of its designations.  Lee-Chang's opening takes 5 powers, 6 for a
signer key that keys.in_subgroup must test (see _recover).

The verifier simulates from (w1, w2) via t = y_A**(w1**-1) and
u = y_A**(w1**-1 * w2); the map (w1, w2) -> (k1, k2) =
(x_A * w1**-1, x_A * w1**-1 * w2) is a bijection of the nonce space, so
simulated transcripts are distribution-equal to real ones.  _simulate
also returns u's exponent, so the Lee-Chang simulator blinds with
u**x_B = y_A**(w1**-1 * w2 * x_B), exponent mod q: every power it takes
is of y_A and reads y_A's fixed-base table.  For a signer key in the
order-q subgroup that is the textbook u**x_B.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidNonce, InvalidRandomness, InvalidSignature
from .groupparams import GroupParams
from .keys import in_subgroup
from .modmath import ZQ, ZQ_STAR, PerCallBase, mod_exp, mod_inv, pow_in_subgroup, sample_space
from .msghash import HashMode, Message, hash_to_zq, recovered_message


@dataclass(frozen=True)
class RecoverySignature:
    t: int
    c: int
    r: int
    s: int


@dataclass(frozen=True)
class RecoveryNonces:
    """Per-signature randomness: k1 in Z_q*, k2 in Z_q."""

    k1: int
    k2: int


def random_nonces(params: GroupParams, rng: random.Random) -> RecoveryNonces:
    return sample_space(params.q, (ZQ_STAR, ZQ), rng, lambda draw: RecoveryNonces(*draw))


def _sign(
    params: GroupParams,
    signer_secret: int,
    blinding_base: int | None,
    m: Message,
    nonces: RecoveryNonces,
    mode: HashMode,
) -> tuple[int, int, int, int]:
    """(t, c, r, s) with c = m * blinding_base**k2; None blinds with g**k2 itself."""
    p, q = params.p, params.q
    k1 = nonces.k1 % q
    k2 = nonces.k2 % q
    if k1 == 0:
        raise InvalidNonce("nonce k1 must be nonzero mod q")
    t = mod_exp(params.g, k1, p)
    u = mod_exp(params.g, k2, p)
    blind = u if blinding_base is None else mod_exp(blinding_base, k2, p)
    r = hash_to_zq(m.value, u, params, mode)
    s = mod_inv(k1, q) * (signer_secret * r - k2) % q
    return t, m.value * blind % p, r, s


def _recover(params: GroupParams, signer_public: int, sig, units, value, mode: HashMode) -> Message:
    """The message recovered from sig, or InvalidSignature.

    In order: r and s must lie in [0, q), each named unit field in
    [1, p), t in the order-q subgroup without 1, e (where named) in that
    subgroup and y_A in [1, p) and in that subgroup (keys.in_subgroup), as
    Lee-Chang raises y_A to -r*x_B mod q: for a y_A*h, h of small order l,
    each signature would hand its signer (-r*x_B mod q) mod l, enough to
    recover all of x_B.  Then g**-k2 = t**s * y_A**-r opens the signature,
    value(g**-k2, t, e) unblinds the message (e is None unless named),
    and r = H(m, g**k2) accepts it, as msghash.recovered_message(m): a
    bare residue is no error.  t and e are held here as PerCallBase, so
    t**s, Lee-Chang's t**(s*x_B) and e**x_B read the combs that t**q and
    e**q built, and x_B reaches t or e only after its power to q has
    passed.  A t that is already a PerCallBase, as every PVSignature's
    is, keeps its comb: a later opening of the same object powers t from
    it, to q and to s, without building it again.  Every opening still
    takes every power.
    """
    p, q = params.p, params.q
    # Each is raised to q, then to s or x_B.
    t, e = PerCallBase(sig.t), PerCallBase(sig.e) if "e" in units else None
    if not (0 <= sig.r < q and 0 <= sig.s < q):
        raise InvalidSignature("r or s outside [0, q)")
    for name in units:
        if not 1 <= getattr(sig, name) < p:
            raise InvalidSignature(f"{name} outside [1, p)")
    if t <= 1 or t >= p or mod_exp(t, q, p) != 1:
        raise InvalidSignature("t is not a nontrivial order-q subgroup element")
    if e is not None and mod_exp(e, q, p) != 1:
        raise InvalidSignature("e is not an order-q subgroup element")
    # Outside [1, p) y_A**r can be 0, which has no inverse.
    if not 1 <= signer_public < p:
        raise InvalidSignature("signer public key outside [1, p)")
    if not in_subgroup(params, signer_public):
        raise InvalidSignature("signer public key is not an order-q subgroup element")
    y_r = pow_in_subgroup(signer_public, sig.r, p, q)
    t_s = pow_in_subgroup(t, sig.s, p, q)
    # Montgomery's trick: one inverse of t**s * y_A**r gives g**-k2 = t**s * y_A**-r
    # and g**k2 = y_A**r * t**-s.  Neither factor is 0, as t and y_A lie in [1, p).
    inverse = mod_inv(t_s * y_r % p, p)
    unblind = t_s * t_s % p * inverse % p
    m = value(unblind, t, e)
    if hash_to_zq(m, y_r * y_r % p * inverse % p, params, mode) != sig.r:
        raise InvalidSignature("hash check failed")
    return recovered_message(m, params)


def _simulate(
    params: GroupParams, signer_public: int, m: Message, w1: int, w2: int, mode: HashMode
) -> tuple[int, int, int, int, int]:
    """(t, u, r, s, k) of a verifier-side transcript, with u = g**k2 = y_A**k."""
    p, q = params.p, params.q
    w1 %= q
    w2 %= q
    if w1 == 0:
        raise InvalidRandomness("simulator randomness w1 must be nonzero mod q")
    w1_inv = mod_inv(w1, q)
    k = w1_inv * w2 % q
    t = mod_exp(signer_public, w1_inv, p)
    u = mod_exp(signer_public, k, p)
    r = hash_to_zq(m.value, u, params, mode)
    return t, u, r, (w1 * r - w2) % q, k


def mr_sign(
    params: GroupParams,
    signer_secret: int,
    verifier_public: int,
    m: Message,
    nonces: RecoveryNonces,
    mode: HashMode = HashMode.PRODUCTION,
) -> RecoverySignature:
    """Sign m with recovery towards the designated verifier."""
    return RecoverySignature(*_sign(params, signer_secret, verifier_public, m, nonces, mode))


def mr_recover_verify(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    sig: RecoverySignature,
    mode: HashMode = HashMode.PRODUCTION,
) -> Message:
    """Recover the message and verify in one step; needs the verifier secret.

    unblind**x_B is taken as t**(s*x_B) * y_A**(-r*x_B), exponents mod q,
    from t's comb and y_A's table, for a y_A that _recover has tested.
    """
    p, q = params.p, params.q
    return _recover(params, signer_public, sig, ("c",), lambda _, t, __: (
        sig.c * pow_in_subgroup(t, sig.s * verifier_secret, p, q) % p
        * pow_in_subgroup(signer_public, -sig.r * verifier_secret, p, q) % p), mode)


def mr_simulate(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    m: Message,
    w1: int,
    w2: int,
    mode: HashMode = HashMode.PRODUCTION,
) -> RecoverySignature:
    """Verifier-side transcript from randomness w1 in Z_q*, w2 in Z_q."""
    p, q = params.p, params.q
    t, _, r, s, k = _simulate(params, signer_public, m, w1, w2, mode)
    # u**x_B from y_A's table rather than a builtin power of u.
    c = m.value * pow_in_subgroup(signer_public, k * verifier_secret, p, q) % p
    return RecoverySignature(t=t, c=c, r=r, s=s)
