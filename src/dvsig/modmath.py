"""Arbitrary-precision modular arithmetic and exact uniform sampling.

Residues are plain non-negative ints, already reduced modulo their
context modulus; every function here returns values that keep that
invariant.  The randomness source is always passed explicitly.

mod_exp and pow_in_subgroup share one private helper, _power, which
keeps lazy fixed-base tables.  For a modulus of at least 256 bits it
counts the uses of each (base, modulus) pair; at the _TABLE_AFTER-th
use it builds a Lim-Lee comb table for that base (Lim & Lee, CRYPTO
'94), sized for the widest exponent among those uses, and later powers
of the base read the table: under a quarter of the time of the builtin
pow at 2048 bits.  A base used fewer times, a smaller modulus, and a
negative exponent or one wider than the table take the builtin pow, so
one-shot processes and the toy groups never build a table.  Either way
the result is exactly pow(base, exp, modulus).

The use counter and the tables are module state, both bounded: at most
_MAX_COUNTED counted pairs and _MAX_TABLES tables, each evicting the
least recently used.  The bookkeeping runs under a lock; a build runs
outside it, so two threads may build the same table at once, which is
idempotent (both build the same entries).  Which entries a table power
reads depends on the exponent's bits, so it is not constant-time;
neither is the builtin pow, and constant-time execution is out of
scope for this package.

Randomness is drawn by sample_uniform, and a tuple of it by
sample_space: a space names, in draw order, the range of each component,
ZQ for [0, q) or ZQ_STAR for [1, q).  oracle.SCHEMES lists each scheme's
signer and simulator spaces; the CLI, sds_sign_random,
sds_simulate_random and random_nonces all draw through sample_space.
"""

from __future__ import annotations

import random
import threading
from math import prod

from .errors import DegenerateHash, NonInvertible

# Ranges of randomness components: Z_q = [0, q), Z_q* = [1, q).
ZQ, ZQ_STAR = "Z_q", "Z_q*"

# Comb shape: an index combines _COMB_ROWS exponent bits, and the table
# holds _COMB_BLOCKS blocks of 2**_COMB_ROWS entries.  At 2048/256 bits
# a power costs 18 squarings and at most 38 multiplications (the builtin
# pow: about 256 and 128), and a table holds 256 residues, 0.08 MB.
# Eight rows are about 5% faster per power and take twice the memory.
_COMB_ROWS = 7
_COMB_BLOCKS = 2
# A build costs about two builtin powers.  One process that signs,
# designates and verifies a signature uses its t about ten times, and
# that must not evict the tables of g and the keys.
_TABLE_AFTER = 16
# Crossover, measured with scripts/modmath_layer.py: a build is repaid
# after about 2 table powers at 2048 bits, 8 at 256 bits and 20 at 160
# bits; at 64 bits a table power is slower than the builtin pow.
_TABLE_MIN_MODULUS = 1 << (256 - 1)
_MAX_TABLES = 3
_MAX_COUNTED = 64

_lock = threading.Lock()
# (base, modulus) -> [uses, widest exponent in bits], least recent first.
_uses: dict[tuple[int, int], list[int]] = {}
# (base, modulus) -> _Comb, least recent first.
_tables: dict[tuple[int, int], _Comb] = {}


class _Comb:
    """Lim-Lee fixed-base comb for exponents of up to `width` bits.

    The exponent is cut into _COMB_ROWS rows of `cols` bits and every
    row into _COMB_BLOCKS blocks of `span` bits.  Entry I of block k is
    the product of base**(2**(i*cols + k*span)) over the set bits i of I,
    so the bits in one column of every row, read as I, select one entry;
    a power is `span` squarings of an accumulator that multiplies in one
    entry per block at each step.
    """

    __slots__ = ("modulus", "width", "cols", "span", "entries")

    def __init__(self, base: int, modulus: int, width: int):
        step = _COMB_ROWS * _COMB_BLOCKS
        self.modulus = modulus
        self.width = max(step, -(-width // step) * step)
        self.cols = self.width // _COMB_ROWS
        self.span = self.cols // _COMB_BLOCKS
        # base**(2**(n*span)) for n = i*_COMB_BLOCKS + k, since cols = span * _COMB_BLOCKS
        powers = [base % modulus]
        for _ in range(1, step):
            x = powers[-1]
            for _ in range(self.span):
                x = x * x % modulus
            powers.append(x)
        self.entries = []
        for k in range(_COMB_BLOCKS):
            block = [1]
            for i in range(_COMB_ROWS):
                factor = powers[i * _COMB_BLOCKS + k]
                block += [entry * factor % modulus for entry in block]
            self.entries += block

    def power(self, exp: int) -> int:
        """base**exp mod modulus for 0 <= exp < 2**width."""
        cols, span, modulus, entries = self.cols, self.span, self.modulus, self.entries
        bits = format(exp, f"0{self.width}b")
        # Reading the rows top row first, column by column, gives every
        # column's index; reversed, index[c] belongs to column c.
        index = [int("".join(column), 2)
                 for column in zip(*[bits[i:i + cols] for i in range(0, self.width, cols)])]
        index.reverse()
        acc = 1
        for j in range(span - 1, -1, -1):
            acc = acc * acc % modulus
            for k in range(_COMB_BLOCKS):
                i = index[k * span + j]
                if i:
                    acc = acc * entries[(k << _COMB_ROWS) | i] % modulus
        return acc


def _power(base: int, exp: int, modulus: int) -> int:
    """pow(base, exp, modulus), from a fixed-base table once the base is hot."""
    if exp < 0 or modulus < _TABLE_MIN_MODULUS:
        return pow(base, exp, modulus)
    key = (base, modulus)
    build_width = None
    with _lock:
        table = _tables.pop(key, None)
        if table is not None:
            _tables[key] = table
        else:
            seen = _uses.pop(key, None) or [0, 0]
            seen[0] += 1
            seen[1] = max(seen[1], exp.bit_length())
            if seen[0] >= _TABLE_AFTER:
                build_width = seen[1]
            else:
                _uses[key] = seen
                if len(_uses) > _MAX_COUNTED:
                    del _uses[next(iter(_uses))]
    if build_width is not None:
        table = _Comb(base, modulus, build_width)
        with _lock:
            _tables[key] = table
            if len(_tables) > _MAX_TABLES:
                del _tables[next(iter(_tables))]
    if table is None or exp.bit_length() > table.width:
        return pow(base, exp, modulus)
    return table.power(exp)


def mod_exp(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus for a non-negative exponent."""
    return _power(base, exp, modulus)


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a modulo a prime."""
    a %= modulus
    if a == 0:
        raise NonInvertible(f"0 has no inverse mod {modulus}")
    return pow(a, -1, modulus)


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
