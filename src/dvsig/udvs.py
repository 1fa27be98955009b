"""Universal designation: turning a PV signature into a DV signature.

A holder of a valid PV signature (t, c, r, s) -- not necessarily the
signer -- designates it to one verifier by blinding the recovery
component with the verifier's public key,

    e = g**-d mod p,    w = c * y_B**d mod p,    d random in Z_q,

and ships delta = (t, w, r, s, e).  Only the designated verifier can
strip the blinding, by sdvs_mr's _recover with w * g**-k2 * e**x_B:

    recover  m = w * (t**s * y_A**-r * e**x_B) mod p,
    accept iff  r = H(m, t**-s * y_A**r).

e must lie in the order-q subgroup: with e * h for an h of small order,
the verifier's answer would reveal x_B modulo the order of h.

dsg opens the PV signature with psv before it designates, and delta
carries the PV signature's own t object, a modmath.PerCallBase: the
comb that the holder's first psv built for t serves the psv of every
designation and, in the same process, dsv_recover of each of them.  A
DV signature that dv_simulate makes or the wire decodes holds plain
ints, and _recover marks its t and e for one call.

The verifier simulates delta from (w1, w2, d') with the shared simulator
core (t', u, r', s'), takes c' = m * u as the PV signer would, and then
self-designates: e' = g**-d', w' = c' * g**(x_B * d').  Under
(w1, w2, d') -> (k1, k2, d) = (x_A * w1**-1, x_A * w1**-1 * w2, d')
the simulator's output multiset equals the signer/designator's exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPVSignature, InvalidSignature
from .groupparams import GroupParams
from .modmath import mod_exp, pow_in_subgroup
from .msghash import HashMode, Message
from .pv_scheme import PVSignature, psv
from .sdvs_mr import _recover, _simulate


@dataclass(frozen=True)
class DVSignature:
    t: int
    w: int
    r: int
    s: int
    e: int


@dataclass(frozen=True)
class SimulatorRandomness:
    """Verifier-side randomness: w1 in Z_q*, w2 and d in Z_q."""

    w1: int
    w2: int
    d: int


def dsg(
    params: GroupParams,
    signer_public: int,
    verifier_public: int,
    pv_sig: PVSignature,
    d: int,
    mode: HashMode = HashMode.PRODUCTION,
) -> DVSignature:
    """Designate a validated PV signature to one verifier.

    d = 0 is permitted and yields the degenerate designation (identity
    blinder, e = 1).
    """
    try:
        psv(params, signer_public, pv_sig, mode)
    except InvalidSignature as exc:
        raise InvalidPVSignature(f"refusing to designate: {exc}") from exc
    p, q = params.p, params.q
    d %= q
    e = pow_in_subgroup(params.g, -d, p, q)
    w = pv_sig.c * mod_exp(verifier_public, d, p) % p
    return DVSignature(t=pv_sig.t, w=w, r=pv_sig.r, s=pv_sig.s, e=e)


def dsv_recover(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    sig: DVSignature,
    mode: HashMode = HashMode.PRODUCTION,
) -> Message:
    """Recover and verify a DV signature; needs the designated verifier's secret."""
    p = params.p
    return _recover(params, signer_public, sig, ("w", "e"),
                    lambda unblind, _, e: sig.w * unblind % p * mod_exp(e, verifier_secret, p) % p,
                    mode)


def dv_simulate(
    params: GroupParams,
    signer_public: int,
    verifier_secret: int,
    m: Message,
    rands: SimulatorRandomness,
    mode: HashMode = HashMode.PRODUCTION,
) -> DVSignature:
    """Verifier-side DV transcript; always passes dsv_recover for m."""
    p, q = params.p, params.q
    d = rands.d % q
    t, u, r, s, _ = _simulate(params, signer_public, m, rands.w1, rands.w2, mode)
    e = pow_in_subgroup(params.g, -d, p, q)
    w = m.value * u % p * mod_exp(params.g, verifier_secret * d % q, p) % p
    return DVSignature(t=t, w=w, r=r, s=s, e=e)
