"""Key material: a secret exponent in Z_q* and its public group element.

Secret keys are only ever serialized into their own secret-key blobs;
signature and parameter blobs never carry them.  Every opener asks
in_subgroup whether its signer key is an order-q element; keygen and the
CLI make every key through validate_public, as a SubgroupKey, which
in_subgroup passes without a power: so each key is tested once, and an
opener's count of powers depends only on the type of key it is handed.
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


class SubgroupKey(FixedBase):
    """A public key that validate_public found in the order-q subgroup of `group`, its (p, q)."""

    group = None


def in_subgroup(params: GroupParams, y: int) -> bool:
    """y**q = 1 mod p: without a power for a SubgroupKey of this (p, q), else with one."""
    p, q = params.p, params.q
    return (isinstance(y, SubgroupKey) and y.group == (p, q)) or mod_exp(y, q, p) == 1


def validate_public(params: GroupParams, y: int) -> SubgroupKey:
    """y as a SubgroupKey, or Malformed unless it lies in (1, p) and in_subgroup.

    A key outside that subgroup would let its holder learn a verifier's
    secret modulo the order of its small-order part, one guess per signature.
    """
    if not 1 < y < params.p:
        raise Malformed("public key outside (1, p)")
    if not in_subgroup(params, y):
        raise Malformed("public key is not an order-q subgroup element")
    key = SubgroupKey(int(y))
    key.group = params.p, params.q
    return key


def keygen(params: GroupParams, rng: random.Random, role: str = "") -> KeyPair:
    """Fresh key pair with x uniform in [1, q-1]; Malformed where g**x fails validate_public."""
    x = sample_uniform(params.q, True, rng)
    return KeyPair(x=x, y=validate_public(params, derive_public(params, x)), role=role)
