"""Arbitrary-precision modular arithmetic and exact uniform sampling.

Residues are non-negative ints, already reduced modulo their context
modulus; every function here returns plain ints that keep that
invariant.  The randomness source is always passed explicitly.

mod_exp and pow_in_subgroup share one private helper, _power.  A base
that is a FixedBase, an int subclass, carries its own Lim-Lee comb
(Lim & Lee, CRYPTO '94) and is powered from it; any other base and a
modulus below 512 bits take the builtin pow.  mod_exp refuses a
negative exponent with OutOfRange; pow_in_subgroup reduces its exponent
mod q first.
The comb is built at the base's `after`-th power modulo a modulus of at
least 512 bits (_TABLE_MIN_MODULUS), sized for the widest exponent
among those powers, and is bound to the modulus of the power that built
it: an exponent wider than the comb, or a power modulo another modulus,
takes the builtin pow.  Either way the result is exactly pow(base, exp,
modulus).  The comb lives and dies with the residue that owns it.

There are two forms.  A FixedBase is long-lived: GroupParams.g,
PublicKey.y and KeyPair.y mark themselves so, and at the 16th power a
base builds a table (8 rows, 4 blocks).  A PerCallBase builds a smaller
comb (4 rows, 2 blocks) at its first power: sdvs_mr._recover marks t
and the UDVS e so, because it raises each to q and then again.  Marking
a value already of the form returns it unchanged, so the comb lives as
long as the residue that holds it: a t or e the opener marks goes when
the call returns, while pv_scheme.PVSignature holds its t as a
PerCallBase, so every opening of one PV signature, and of its
designations, reads the comb the first one built.  A process that loads
its group and keys once per invocation, as the CLI does, powers each of
them a few times and builds no table.

There is no module state: no cache, no lock, no thread-local.  Two
threads that power one base may both build its comb, which is
harmless: both combs hold the same entries, and each power reads the
comb it got.  Which entries a comb power reads depends on the
exponent's bits, so it is not constant-time; neither is the builtin
pow, and constant-time execution is out of scope for this package.

Randomness is drawn by sample_uniform, and a tuple of it by
sample_space: a space names, in draw order, the range of each component,
ZQ for [0, q) or ZQ_STAR for [1, q).  oracle.SCHEMES lists each scheme's
space, which its signer and its simulator share; the CLI, sds_sign_random,
sds_simulate_random and random_nonces all draw through sample_space.
"""

from __future__ import annotations

import random
from math import prod

from .errors import DegenerateHash, NonInvertible, OutOfRange

# Ranges of randomness components: Z_q = [0, q), Z_q* = [1, q).
ZQ, ZQ_STAR = "Z_q", "Z_q*"

# Below this modulus no form builds a comb; _power tests it first.  No
# preset, workload or CLI default uses a smaller group.  Crossover,
# measured with scripts/modmath_layer.py: a FixedBase build is repaid
# after about 6 table powers at 2048 bits, but only after 13 to 24 at
# 256 bits and 34 to 49 at 160 bits, near or past the 16th power that
# builds it; at 64 bits a table power is slower than the builtin pow.
# So neither form builds a comb below 512 bits.
_TABLE_MIN_MODULUS = 1 << (512 - 1)


class _Comb:
    """Lim-Lee fixed-base comb for exponents of up to `width` bits.

    The exponent is cut into `rows` rows of `cols` bits and every row
    into `blocks` blocks of `span` bits.  Entry I of block k is
    the product of base**(2**(i*cols + k*span)) over the set bits i of I,
    so the bits in one column of every row, read as I, select one entry;
    a power is `span` squarings of an accumulator that multiplies in one
    entry per block at each step.
    """

    __slots__ = ("modulus", "width", "rows", "blocks", "cols", "span", "entries")

    def __init__(self, base: int, modulus: int, width: int, rows: int, blocks: int):
        step = rows * blocks
        self.modulus = modulus
        self.rows, self.blocks = rows, blocks
        self.width = max(step, -(-width // step) * step)
        self.cols = self.width // rows
        self.span = self.cols // blocks
        # base**(2**(n*span)) for n = i*blocks + k, since cols = span * blocks
        powers = [base % modulus]
        for _ in range(1, step):
            x = powers[-1]
            for _ in range(self.span):
                x = x * x % modulus
            powers.append(x)
        self.entries = []
        for k in range(blocks):
            block = [1]
            for i in range(rows):
                factor = powers[i * blocks + k]
                block += [entry * factor % modulus for entry in block]
            self.entries += block

    def power(self, exp: int) -> int:
        """base**exp mod modulus for 0 <= exp < 2**width."""
        cols, span, modulus, entries = self.cols, self.span, self.modulus, self.entries
        rows, blocks = self.rows, self.blocks
        bits = format(exp, f"0{self.width}b")
        # Reading the rows top row first, column by column, gives every
        # column's index; reversed, index[c] belongs to column c.
        index = [int("".join(column), 2)
                 for column in zip(*[bits[i:i + cols] for i in range(0, self.width, cols)])]
        index.reverse()
        acc = 1
        for j in range(span - 1, -1, -1):
            acc = acc * acc % modulus
            for k in range(blocks):
                i = index[k * span + j]
                if i:
                    acc = acc * entries[(k << rows) | i] % modulus
        return acc


class FixedBase(int):
    """A residue that powers itself from its own Lim-Lee comb, once it has been powered enough.

    Constructing one from an instance of its class, a subclass's
    included, returns that value, so its comb is shared.  The comb is
    built at the `after`-th power and is bound to the modulus of that
    power; _power asks for it only modulo _TABLE_MIN_MODULUS or more.
    """

    # Comb shape: an index combines `rows` exponent bits, and the table
    # holds `blocks` blocks of 2**rows entries.  For a 256-bit exponent a
    # power costs 8 squarings and at most 32 multiplications (the builtin
    # pow, which windows the exponent: about 256 and 50), and a table
    # holds 1,024 residues.  7 rows and 2 blocks would take 18 squarings
    # and 38 multiplications, with a quarter of the memory and build.
    rows, blocks = 8, 4
    # A build costs about five builtin powers at 2048 bits; a CLI
    # invocation powers g and each key a few times, a long-lived signer
    # hundreds of times.
    after = 16
    # Until the build: no comb, and the count and widest exponent of the powers so far.
    comb, uses, width = None, 0, 0

    def __new__(cls, value: int):
        return value if isinstance(value, cls) else super().__new__(cls, value)

    def comb_for(self, exp: int, modulus: int) -> _Comb | None:
        """The comb that raises self to exp modulo modulus, or None.

        None until the `after`-th power builds it, and None for a modulus
        other than the one it was built for.
        """
        comb = self.comb
        if comb is None:
            self.uses += 1
            self.width = max(self.width, exp.bit_length())
            if self.uses < self.after:
                return None
            comb = self.comb = _Comb(self, modulus, self.width, self.rows, self.blocks)
        return comb if comb.modulus == modulus else None


class PerCallBase(FixedBase):
    """A base powered at least twice: its comb is built at its first power.

    The comb lives as long as the residue: sdvs_mr._recover marks a t or
    e it is handed as a plain int for the length of one call, and a
    PVSignature's t, marked when the signature is made, keeps its comb
    for every opening of that signature (32 residues).  For a 256-bit
    exponent a build is 224 squarings and a power 32 squarings and at
    most 64 multiplications, so a build and the two powers that PV and
    UDVS take of t, or the three of Lee-Chang, cost less than as many
    builtin pows at 2048 bits; a t that fails t**q = 1 pays a build for
    one power.  Like a FixedBase, it builds nothing below 512 bits: the
    saving shrinks with the modulus, at 256 bits a build and two powers
    are slower than two builtin pows, and no preset, workload or CLI
    default uses such a group (scripts/modmath_layer.py times both sides).
    """

    rows, blocks = 4, 2
    after = 1


def _power(base: int, exp: int, modulus: int) -> int:
    """pow(base, exp, modulus), from the base's comb where it has one that fits."""
    if exp < 0 or modulus < _TABLE_MIN_MODULUS:
        return pow(base, exp, modulus)
    comb = base.comb_for(exp, modulus) if isinstance(base, FixedBase) else None
    if comb is None or exp.bit_length() > comb.width:
        return pow(base, exp, modulus)
    return comb.power(exp)


def mod_exp(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus for a non-negative exponent; OutOfRange for a negative one."""
    if exp < 0:
        raise OutOfRange(f"exponent {exp} is negative")
    return _power(base, exp, modulus)


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a modulo modulus >= 2; NonInvertible for an a that shares a
    factor with modulus, as 0 does, and as more do when modulus is composite."""
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NonInvertible(f"{a % modulus} has no inverse mod {modulus}") from None


def pow_in_subgroup(base: int, exp: int, p: int, q: int) -> int:
    """base**exp mod p for a base of multiplicative order q.

    The exponent may be negative or oversized; it is reduced mod q
    first, which is exact for order-q elements.
    """
    return _power(base, exp % q, p)


def sample_uniform(bound: int, exclude_zero: bool, rng: random.Random) -> int:
    """Uniform draw from [0, bound) or [1, bound).

    Rejection sampling over fixed-width draws keeps the distribution
    exactly uniform (no modulo bias).
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    bits = (bound - 1).bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value >= bound:
            continue
        if exclude_zero and value == 0:
            continue
        return value


def sample_space(q: int, space, rng: random.Random, make=tuple):
    """make(draw) for a draw of one sample_uniform per component of space, in order.

    A make that raises DegenerateHash rejects the draw and a fresh one is
    made, until every draw of the space is rejected; other errors propagate.
    """
    rejected, size = set(), prod(q - (kind == ZQ_STAR) for kind in space)
    while True:
        draw = tuple(sample_uniform(q, kind == ZQ_STAR, rng) for kind in space)
        try:
            return make(draw)
        except DegenerateHash:
            rejected.add(draw)
            if len(rejected) == size:
                raise DegenerateHash(f"every one of the {size} draws of the space is degenerate")
