"""Exhaustive toy-group enumeration of signature distributions.

For groups with q <= 64 the full signer randomness space is small
enough to iterate, which turns "simulated transcripts follow the same
probability distribution" into an exact multiset-equality check rather
than a statistical one.  The hand-computable stub hash is used
throughout so every collision is counted, not approximated.

Also measures two floors on the same toy groups:

* forgery: how often a uniformly random signature tuple (each field
  over its own range: t and UDVS's e in <g>, c and w in Z_p*, r and s
  in Z_q or Z_q*) is accepted.  It measures random tuples only: the
  public forgers of the threat ledger (tests/test_threats.py) build t
  from y_A and are accepted every time;
* confidentiality: recovery under a wrong verifier secret returns the
  true message only when the blinding exponent was zero, and the hash
  check passes at most at the same 1/q-scale rate.

SCHEMES states once what sets the four schemes apart; the enumeration,
the forgery floor, the wrong-key census and the CLI all read it.  One
walk over a signer or simulator space, _signatures, yields the
signatures that both multisets and the wrong-key census read.

A multiset keys each signature by one int, its fields in field order in
p.bit_length()-bit lanes, first field most significant: every field lies
in [0, p), so keys are distinct and ascend as the field tuples do.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import islice, product
from operator import attrgetter
from typing import Callable

from .errors import DegenerateHash, GroupTooLarge, InvalidSignature, SchemeMismatch
from .groupparams import GroupParams
from .keys import KeyPair
from .modmath import ZQ, ZQ_STAR, mod_exp, mod_inv, pow_in_subgroup, sample_uniform
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

# Ranges of signature fields, besides modmath's ZQ and ZQ_STAR.
SUBGROUP, UNIT = "<g>", "Z_p*"


@dataclass(frozen=True)
class Scheme:
    """What sets one scheme apart, for the CLI and the oracle alike.

    The callables take the signer a and the verifier b duck-typed and
    read only the attribute they need: .x of a secret, .y of a public
    element.  So the CLI passes the keys it loaded from files and the
    oracle passes KeyPairs.  Each callable names the scheme function in
    its body, so the name resolves when it is called and a replaced
    module attribute (a tracer, an exponentiation counter) sees the call.
    """

    sig_type: type
    designated: bool  # signing needs y_B and opening needs x_B
    recovers: bool  # the signature carries the message
    sign_space: tuple[str, ...]  # signer and simulator randomness: ZQ or ZQ_STAR each, in order
    sign: Callable  # (params, a, b, m, randomness, mode) -> signature
    open: Callable  # (params, a, b, m, sig, mode) -> the Message it accepts, else InvalidSignature
    forgery: tuple[str, ...]  # the range of each signature field, in field order
    simulate: Callable | None = None  # (params, a, b, m, randomness, mode) -> signature
    # Signed as PV and designated afterwards by the signature's holder: the CLI makes it with
    # designate and opens it with dverify, not with sign and recover.
    designated_later: bool = False


def _sds_open(params, a, b, m, sig, mode):
    """sds_verify as an opener; Saeednia recovers nothing, so an accept returns m."""
    if not sds_verify(params, a.y, b.x, m, sig, mode):
        raise InvalidSignature("Saeednia verification failed")
    return m


@lru_cache(maxsize=1)
def _pv_signed(params, x, m, k1, k2, mode):
    """UDVS enumeration runs d fastest, so this signs each (k1, k2) once for all d."""
    return psg(params, x, m, RecoveryNonces(k1, k2), mode)


SCHEMES = {
    SCHEME_SAEEDNIA: Scheme(
        SaeedniaSignature, designated=True, recovers=False, sign_space=(ZQ, ZQ_STAR),
        sign=lambda params, a, b, m, rand, mode: sds_sign(
            params, a.x, b.y, m, SaeedniaNonces(*rand), mode),
        open=_sds_open,
        forgery=(ZQ, ZQ, ZQ_STAR),
        simulate=lambda params, a, b, m, rand, mode: sds_simulate(
            params, a.y, b.x, m, *rand, mode),
    ),
    SCHEME_LEECHANG: Scheme(
        RecoverySignature, designated=True, recovers=True, sign_space=(ZQ_STAR, ZQ),
        sign=lambda params, a, b, m, rand, mode: mr_sign(
            params, a.x, b.y, m, RecoveryNonces(*rand), mode),
        open=lambda params, a, b, m, sig, mode: mr_recover_verify(params, a.y, b.x, sig, mode),
        forgery=(SUBGROUP, UNIT, ZQ, ZQ),
        simulate=lambda params, a, b, m, rand, mode: mr_simulate(
            params, a.y, b.x, m, *rand, mode),
    ),
    SCHEME_PV: Scheme(
        PVSignature, designated=False, recovers=True, sign_space=(ZQ_STAR, ZQ),
        sign=lambda params, a, b, m, rand, mode: psg(
            params, a.x, m, RecoveryNonces(*rand), mode),
        open=lambda params, a, b, m, sig, mode: psv(params, a.y, sig, mode),
        forgery=(SUBGROUP, UNIT, ZQ, ZQ),
    ),
    SCHEME_UDVS: Scheme(
        # The signer's PV nonces k1, k2, then the designator's d.
        DVSignature, designated=True, recovers=True, sign_space=(ZQ_STAR, ZQ, ZQ),
        sign=lambda params, a, b, m, rand, mode: dsg(
            params, a.y, b.y, _pv_signed(params, a.x, m, *rand[:2], mode), rand[2], mode),
        open=lambda params, a, b, m, sig, mode: dsv_recover(params, a.y, b.x, sig, mode),
        forgery=(SUBGROUP, UNIT, ZQ, ZQ, SUBGROUP),
        simulate=lambda params, a, b, m, rand, mode: dv_simulate(
            params, a.y, b.x, m, SimulatorRandomness(*rand), mode),
        designated_later=True,
    ),
}

SIMULATABLE_SCHEMES = tuple(name for name, entry in SCHEMES.items() if entry.simulate)


@dataclass
class SignatureMultiset:
    """Occurrence counts of one scheme's signatures, each under one int key: its fields in
    field order, first most significant, in lanes of p.bit_length() bits.  decode inverts it.
    """

    scheme: str
    p: int
    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, sig) -> None:
        p, width, key = self.p, self.p.bit_length(), 0
        for value in _field_values(type(sig))(sig):
            if not 0 <= value < p:
                raise ValueError(f"signature field {value} outside [0, {p}): {sig}")
            key = key << width | value
        self.counts[key] += 1

    def decode(self, key: int) -> tuple[int, ...]:
        """The field tuple counted under key."""
        width = self.p.bit_length()
        lanes = range(len(fields(SCHEMES[self.scheme].sig_type)) - 1, -1, -1)
        return tuple(key >> (width * lane) & ((1 << width) - 1) for lane in lanes)


@lru_cache(maxsize=None)
def _field_values(sig_type: type):
    """sig -> the tuple of its field values in field order, without astuple's deep copies.

    attrgetter of several names returns a tuple; every signature type has several fields.
    """
    return attrgetter(*(f.name for f in fields(sig_type)))


@dataclass
class DiffReport:
    equal: bool
    lines: list[str] = field(default_factory=list)


def _scheme(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme: {name}") from None


def _signatures(params: GroupParams, signer, verifier, m: Message, scheme: str, simulated=False):
    """(randomness, signature) for each signer (or simulator) randomness, in draw order with
    the last component fastest, under the stub hash; degenerate hashes are skipped.  Lazy:
    its errors come at the first next(), before any signature is made.
    """
    if params.q > MAX_ENUM_ORDER:
        raise GroupTooLarge(f"q = {params.q} exceeds the enumeration guard ({MAX_ENUM_ORDER})")
    entry = _scheme(scheme)
    make = entry.simulate if simulated else entry.sign
    if make is None:
        raise ValueError(f"scheme has no transcript simulator: {scheme}")
    for randomness in product(*(range(kind == ZQ_STAR, params.q) for kind in entry.sign_space)):
        try:
            yield randomness, make(params, signer, verifier, m, randomness, HashMode.STUB)
        except DegenerateHash:
            continue


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
    out = SignatureMultiset(scheme, params.p)
    for _, sig in _signatures(params, signer, verifier, m, scheme):
        out.add(sig)
    return out


def enumerate_simulated(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
) -> SignatureMultiset:
    """Signatures over every legal simulator randomness, under the stub hash."""
    out = SignatureMultiset(scheme, params.p)
    for _, sig in _signatures(params, signer, verifier, m, scheme, simulated=True):
        out.add(sig)
    return out


def check_indistinguishable(a: SignatureMultiset, b: SignatureMultiset) -> DiffReport:
    """Exact multiset equality, with the first 10 differing tuples on mismatch."""
    if (a.scheme, a.p) != (b.scheme, b.p):
        raise SchemeMismatch(f"cannot compare {a.scheme} mod {a.p} against {b.scheme} mod {b.p}")
    diffs = ((label, key, extra[key])
             for label, extra in (("first", a.counts - b.counts), ("second", b.counts - a.counts))
             for key in sorted(extra))
    lines = [f"only in {label} multiset: {a.decode(key)} x{n}" for label, key, n in islice(diffs, 10)]
    return DiffReport(equal=not lines, lines=lines)


def random_forgery(params: GroupParams, scheme: str, rng: random.Random):
    """A signature tuple with every component uniform over its own range."""
    p, q = params.p, params.q
    draw = {
        ZQ: lambda: sample_uniform(q, False, rng),
        ZQ_STAR: lambda: sample_uniform(q, True, rng),
        SUBGROUP: lambda: mod_exp(params.g, sample_uniform(q, False, rng), p),
        UNIT: lambda: sample_uniform(p, True, rng),
    }
    entry = _scheme(scheme)
    return entry.sig_type(*(draw[kind]() for kind in entry.forgery))


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
    entry = _scheme(scheme)
    accepted = 0
    for _ in range(trials):
        sig = random_forgery(params, scheme, rng)
        try:
            entry.open(params, signer, verifier, m, sig, mode)
        except InvalidSignature:
            continue
        accepted += 1
    return accepted, trials


@dataclass
class RecoveryCensus:
    """Exhaustive wrong-key recovery measurement on a toy group."""

    scheme: str
    cases: int = 0
    true_message: int = 0
    hash_accepted: int = 0
    unblinded: int = 0  # cases whose blinding exponent, drawn last (k2 resp. d), was zero


def wrong_key_recovery_census(
    params: GroupParams,
    signer: KeyPair,
    verifier: KeyPair,
    m: Message,
    scheme: str,
) -> RecoveryCensus:
    """Run recovery under every wrong secret x != x_B for every signature.

    The recovery algebra is recomputed here from the raw components, so
    the census does not depend on the scheme modules' own accept path,
    and it counts true-message hits whose hash fails: no opener returns those.
    """
    p, q = params.p, params.q
    # The value recovered under secret x from opened = t**s * y_A**-r = g**-k2.
    recover = {
        SCHEME_LEECHANG: lambda sig, opened, x: sig.c * mod_exp(opened, x, p) % p,
        SCHEME_UDVS: lambda sig, opened, x: sig.w * (opened * mod_exp(sig.e, x, p) % p) % p,
    }.get(scheme)
    if recover is None:
        raise ValueError(f"confidentiality census applies to recovery schemes, not {scheme}")
    census = RecoveryCensus(scheme)
    for randomness, sig in _signatures(params, signer, verifier, m, scheme):
        opened = pow_in_subgroup(sig.t, sig.s, p, q) * pow_in_subgroup(signer.y, -sig.r, p, q) % p
        check = mod_inv(opened, p)
        for x in range(1, q):  # inside the walk, so its guard has bounded q
            if x == verifier.x:
                continue
            value = recover(sig, opened, x)
            census.cases += 1
            census.true_message += value == m.value
            census.hash_accepted += hash_to_zq(value, check, params, HashMode.STUB) == sig.r
            census.unblinded += randomness[-1] == 0
    return census
