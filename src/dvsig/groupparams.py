"""Schnorr groups: a prime-order-q subgroup of Z_p* with generator g.

This module only describes groups: the dataclass, the toy23 preset,
generation, and the checks on a group.  Whether a number is prime is
decided in module primes (trial division, then 64 Miller-Rabin rounds),
which this module imports only inside the calls that need it, so a
process that just loads a group compiles none of it.

Generation picks the subgroup order q first, then searches
p = 2*k*q + 1 until p is prime (primes.prime_pair), and finally builds
the generator as g = h**((p-1)/q) mod p for random h, retrying while
g = 1.  It is deterministic for a fixed seeded randomness source.
validate_params proves p and q again, with witnesses of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .modmath import FixedBase, mod_exp, sample_uniform


@dataclass(frozen=True)
class GroupParams:
    """Public group parameters (p, q, g) shared by all parties."""

    p: int
    q: int
    g: int

    def __post_init__(self):
        # Every signature powers g, so it keeps a fixed-base table (modmath.FixedBase).
        object.__setattr__(self, "g", FixedBase(self.g))


@dataclass
class ValidationReport:
    """Outcome of validate_params: empty failure list means valid."""

    failures: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.failures


TOY23 = GroupParams(p=23, q=11, g=4)

PRESETS = {"toy23": TOY23}


def is_probable_prime(n: int) -> bool:
    """primes.is_probable_prime(n): trial division, then Miller-Rabin seeded with n."""
    from . import primes

    return primes.is_probable_prime(n)


def generate_params(
    q_bits: int,
    p_bits: int,
    rng: random.Random,
    max_attempts: int = 250_000,
) -> GroupParams:
    """Generate a fresh group with a q_bits-bit order and p_bits-bit modulus."""
    if q_bits < 4:
        raise ValueError("q_bits must be >= 4")
    if p_bits <= q_bits:
        raise ValueError("p_bits must exceed q_bits")
    from . import primes

    q, p = primes.prime_pair(q_bits, p_bits, rng, max_attempts)
    return GroupParams(p=p, q=q, g=_find_generator(p, q, rng))


def _find_generator(p: int, q: int, rng: random.Random) -> int:
    cofactor = (p - 1) // q
    while True:
        h = 2 + sample_uniform(p - 3, False, rng)  # uniform in [2, p-2]
        g = mod_exp(h, cofactor, p)
        if g != 1:
            return g


def _shape_failures(params: GroupParams) -> list[str]:
    """The conditions on (p, q, g) that need no exponentiation and no primality test."""
    p, q, g = params.p, params.q, params.g
    failures = []
    if p < 2 or q < 2 or (p - 1) % q != 0:  # q >= 2 before the division
        failures.append("q does not divide p - 1")
    if not 1 < g < p:
        failures.append(f"g = {g} is outside (1, p)")
    return failures


def validate_params(params: GroupParams) -> ValidationReport:
    """Check every structural condition on (p, q, g); failures are report entries."""
    report = ValidationReport()
    p, q, g = params.p, params.q, params.g
    if not is_probable_prime(p):
        report.failures.append(f"p = {p} is not prime")
    if not is_probable_prime(q):
        report.failures.append(f"q = {q} is not prime")
    report.failures += _shape_failures(params)
    if p < 2 or q < 1 or mod_exp(g % p, q, p) != 1:
        report.failures.append("g**q mod p != 1 (g is not in the order-q subgroup)")
    return report
