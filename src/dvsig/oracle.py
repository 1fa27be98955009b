"""Exhaustive toy-group enumeration of signature distributions.

For groups with q <= 64 the full signer randomness space is small
enough to iterate, which turns "simulated transcripts follow the same
probability distribution" into an exact multiset-equality check rather
than a statistical one.  The hand-computable stub hash is used
throughout so every collision is counted, not approximated.

Also measures two floors on the same toy groups:

* forgery: uniformly random signature tuples are accepted at no more
  than a small multiple of 1/q (the hash equation filters them);
* confidentiality: recovery under a wrong verifier secret returns the
  true message only when the blinding exponent was zero, and the hash
  check passes at most at the same 1/q-scale rate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import astuple, dataclass, field

from .errors import DegenerateHash, GroupTooLarge, InvalidSignature, SchemeMismatch
from .groupparams import GroupParams
from .keys import KeyPair
from .modmath import mod_exp, pow_in_subgroup, sample_uniform
from .msghash import HashMode, Message, hash_to_zq
from .pv_scheme import PVSignature, psg, psv
from .sdvs_mr import RecoveryNonces, RecoverySignature, mr_recover_verify, mr_sign, mr_simulate
from .sdvs_saeednia import SaeedniaNonces, SaeedniaSignature, sds_sign, sds_simulate, sds_verify
from .udvs import DVSignature, SimulatorRandomness, dsg, dsv_recover, dv_simulate

MAX_ENUM_ORDER = 64

SCHEME_SAEEDNIA = "saeednia"
SCHEME_LEECHANG = "leechang"
SCHEME_PV = "pv"
SCHEME_UDVS = "udvs"

SIMULATABLE_SCHEMES = (SCHEME_SAEEDNIA, SCHEME_LEECHANG, SCHEME_UDVS)


@dataclass
class SignatureMultiset:
    """Occurrence counts of canonical signature tuples for one scheme."""

    scheme: str
    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, sig) -> None:
        self.counts[astuple(sig)] += 1


@dataclass
class DiffReport:
    equal: bool
    lines: list[str] = field(default_factory=list)


def _guard(params: GroupParams) -> None:
    if params.q > MAX_ENUM_ORDER:
        raise GroupTooLarge(f"q = {params.q} exceeds the enumeration guard ({MAX_ENUM_ORDER})")


def enumerate_real(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
) -> SignatureMultiset:
    """Signatures over every legal signer randomness, under the stub hash.

    Saeednia tuples whose hash lands on r = 0 are skipped: the signer
    refuses them (the simulator cannot reach them), so the real-side
    support is restricted to r != 0 by construction.
    """
    _guard(params)
    q = params.q
    out = SignatureMultiset(scheme)
    stub = HashMode.STUB
    if scheme == SCHEME_SAEEDNIA:
        for k in range(q):
            for t in range(1, q):
                try:
                    out.add(sds_sign(params, signer.x, verifier.y, m, SaeedniaNonces(k, t), stub))
                except DegenerateHash:
                    continue
    elif scheme == SCHEME_LEECHANG:
        for k1 in range(1, q):
            for k2 in range(q):
                out.add(mr_sign(params, signer.x, verifier.y, m, RecoveryNonces(k1, k2), stub))
    elif scheme == SCHEME_PV:
        for k1 in range(1, q):
            for k2 in range(q):
                out.add(psg(params, signer.x, m, RecoveryNonces(k1, k2), stub))
    elif scheme == SCHEME_UDVS:
        for k1 in range(1, q):
            for k2 in range(q):
                pv_sig = psg(params, signer.x, m, RecoveryNonces(k1, k2), stub)
                for d in range(q):
                    out.add(dsg(params, signer.y, verifier.y, pv_sig, d, stub))
    else:
        raise ValueError(f"unknown scheme: {scheme}")
    return out


def enumerate_simulated(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
) -> SignatureMultiset:
    """Signatures over every legal simulator randomness, under the stub hash."""
    _guard(params)
    q = params.q
    out = SignatureMultiset(scheme)
    stub = HashMode.STUB
    if scheme == SCHEME_SAEEDNIA:
        for s_rand in range(q):
            for r_rand in range(1, q):
                try:
                    out.add(sds_simulate(params, signer.y, verifier.x, m, s_rand, r_rand, stub))
                except DegenerateHash:
                    continue
    elif scheme == SCHEME_LEECHANG:
        for w1 in range(1, q):
            for w2 in range(q):
                out.add(mr_simulate(params, signer.y, verifier.x, m, w1, w2, stub))
    elif scheme == SCHEME_UDVS:
        for w1 in range(1, q):
            for w2 in range(q):
                for d in range(q):
                    rands = SimulatorRandomness(w1, w2, d)
                    out.add(dv_simulate(params, signer.y, verifier.x, m, rands, stub))
    else:
        raise ValueError(f"scheme has no transcript simulator: {scheme}")
    return out


def check_indistinguishable(a: SignatureMultiset, b: SignatureMultiset) -> DiffReport:
    """Exact multiset equality, with the first 10 differing tuples on mismatch."""
    if a.scheme != b.scheme:
        raise SchemeMismatch(f"cannot compare {a.scheme} against {b.scheme}")
    only_a = a.counts - b.counts
    only_b = b.counts - a.counts
    if not only_a and not only_b:
        return DiffReport(equal=True)
    lines = []
    for label, extra in (("first", only_a), ("second", only_b)):
        for sig_tuple in sorted(extra):
            if len(lines) >= 10:
                return DiffReport(equal=False, lines=lines)
            lines.append(f"only in {label} multiset: {sig_tuple} x{extra[sig_tuple]}")
    return DiffReport(equal=False, lines=lines)


def random_forgery(params: GroupParams, scheme: str, rng: random.Random):
    """A signature tuple with every component uniform over its own range."""
    p, q = params.p, params.q
    zq = lambda: sample_uniform(q, False, rng)
    subgroup_el = lambda: mod_exp(params.g, zq(), p)
    unit = lambda: sample_uniform(p, True, rng)
    if scheme == SCHEME_SAEEDNIA:
        return SaeedniaSignature(r=zq(), s=zq(), t=sample_uniform(q, True, rng))
    if scheme == SCHEME_LEECHANG:
        return RecoverySignature(t=subgroup_el(), c=unit(), r=zq(), s=zq())
    if scheme == SCHEME_PV:
        return PVSignature(t=subgroup_el(), c=unit(), r=zq(), s=zq())
    if scheme == SCHEME_UDVS:
        return DVSignature(t=subgroup_el(), w=unit(), r=zq(), s=zq(), e=unit())
    raise ValueError(f"unknown scheme: {scheme}")


def forgery_acceptance(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
    trials: int,
    rng: random.Random,
    mode: HashMode = HashMode.STUB,
) -> tuple[int, int]:
    """(accepted, trials) for uniformly random tuples against the verifier."""
    verify = {
        SCHEME_SAEEDNIA: lambda sig: sds_verify(params, signer.y, verifier.x, m, sig, mode),
        SCHEME_LEECHANG: lambda sig: mr_recover_verify(params, signer.y, verifier.x, sig, mode, raw=True),
        SCHEME_PV: lambda sig: psv(params, signer.y, sig, mode, raw=True),
        SCHEME_UDVS: lambda sig: dsv_recover(params, signer.y, verifier.x, sig, mode, raw=True),
    }.get(scheme)
    if verify is None:
        raise ValueError(f"unknown scheme: {scheme}")
    accepted = 0
    for _ in range(trials):
        sig = random_forgery(params, scheme, rng)
        try:
            # Saeednia answers False; the recovery schemes raise instead.
            accepted += verify(sig) is not False
        except InvalidSignature:
            pass
    return accepted, trials


@dataclass
class RecoveryCensus:
    """Exhaustive wrong-key recovery measurement on a toy group."""

    scheme: str
    cases: int = 0
    true_message: int = 0
    hash_accepted: int = 0
    unblinded: int = 0  # cases whose blinding exponent (k2 resp. d) was zero


def wrong_key_recovery_census(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
) -> RecoveryCensus:
    """Run recovery under every wrong secret x != x_B for every signature.

    The recovery algebra is recomputed here from the raw components, so
    the census does not depend on the scheme modules' own accept path.
    """
    _guard(params)
    p, q = params.p, params.q
    census = RecoveryCensus(scheme)
    wrong_keys = [x for x in range(1, q) if x != verifier.x]
    stub = HashMode.STUB
    if scheme == SCHEME_LEECHANG:
        for k1 in range(1, q):
            for k2 in range(q):
                sig = mr_sign(params, signer.x, verifier.y, m, RecoveryNonces(k1, k2), stub)
                unblind = (
                    pow_in_subgroup(sig.t, sig.s, p, q)
                    * pow_in_subgroup(signer.y, -sig.r, p, q)
                    % p
                )
                check = (
                    pow_in_subgroup(signer.y, sig.r, p, q)
                    * pow_in_subgroup(sig.t, -sig.s, p, q)
                    % p
                )
                for x in wrong_keys:
                    value = sig.c * mod_exp(unblind, x, p) % p
                    census.cases += 1
                    census.true_message += value == m.value
                    census.hash_accepted += hash_to_zq(value, check, params, stub) == sig.r
                    census.unblinded += k2 == 0
    elif scheme == SCHEME_UDVS:
        for k1 in range(1, q):
            for k2 in range(q):
                pv_sig = psg(params, signer.x, m, RecoveryNonces(k1, k2), stub)
                for d in range(q):
                    sig = dsg(params, signer.y, verifier.y, pv_sig, d, stub)
                    base = (
                        pow_in_subgroup(sig.t, sig.s, p, q)
                        * pow_in_subgroup(signer.y, -sig.r, p, q)
                        % p
                    )
                    check = (
                        pow_in_subgroup(sig.t, -sig.s, p, q)
                        * pow_in_subgroup(signer.y, sig.r, p, q)
                        % p
                    )
                    for x in wrong_keys:
                        value = sig.w * (base * mod_exp(sig.e, x, p) % p) % p
                        census.cases += 1
                        census.true_message += value == m.value
                        census.hash_accepted += hash_to_zq(value, check, params, stub) == sig.r
                        census.unblinded += d == 0
    else:
        raise ValueError(f"confidentiality census applies to recovery schemes, not {scheme}")
    return census
