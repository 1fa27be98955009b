"""Key material: a secret exponent in Z_q* and its public group element.

Secret keys are only ever serialized into their own secret-key blobs;
signature and parameter blobs never carry them.  A public key from
outside the process is checked where it enters, by validate_public: the
CLI does so for every key file it reads.  sds_verify and
mr_recover_verify test y_A**q = 1 again, because they reduce exponents
of y_A times x_B mod q and a library caller may hand them a key nobody
checked; so a CLI opener of those two schemes makes the test twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import Malformed, OutOfRange
from .groupparams import GroupParams
from .modmath import FixedBase, mod_exp, sample_uniform


@dataclass(frozen=True)
class PublicKey:
    y: int

    def __post_init__(self):
        # A public key is powered in every signature it signs or verifies (modmath.FixedBase).
        object.__setattr__(self, "y", FixedBase(self.y))


@dataclass(frozen=True)
class SecretKey:
    x: int


@dataclass(frozen=True)
class KeyPair:
    """Secret exponent x in [1, q-1] with public element y = g**x mod p."""

    x: int
    y: int
    role: str = ""

    __post_init__ = PublicKey.__post_init__

    def public(self) -> PublicKey:
        return PublicKey(self.y)

    def secret(self) -> SecretKey:
        return SecretKey(self.x)


def derive_public(params: GroupParams, x: int) -> int:
    """g**x mod p for a secret exponent in [1, q-1]."""
    if not 1 <= x < params.q:
        raise OutOfRange(f"secret exponent must lie in [1, {params.q - 1}]")
    return mod_exp(params.g, x, params.p)


def validate_public(params: GroupParams, y: int) -> None:
    """Raise Malformed unless y lies in (1, p) and y**q = 1: a nontrivial order-q element.

    A key outside that subgroup would let its holder learn a verifier's
    secret modulo the order of the key's small-order part, one guess per
    signature.  The test is one exponentiation.
    """
    p = params.p
    if not 1 < y < p:
        raise Malformed("public key outside (1, p)")
    if mod_exp(y, params.q, p) != 1:
        raise Malformed("public key is not an order-q subgroup element")


def keygen(params: GroupParams, rng: random.Random, role: str = "") -> KeyPair:
    """Fresh key pair with x uniform in [1, q-1]."""
    x = sample_uniform(params.q, True, rng)
    return KeyPair(x=x, y=derive_public(params, x), role=role)
