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
one-shot processes and the toy groups never build a table.

A caller that powers a base more than once in one call marks it for
the duration of a `with hot(modulus, base, ...)` block.  Inside the
block, the base's first power builds a smaller per-call comb (_HOT_ROWS
rows, one block) and its later powers read it; the comb is dropped at
block exit.  sdvs_mr._recover marks t and the UDVS e, which it raises
to q and then to s or x_B.  A table of the base still takes precedence
and the use counter counts as before.  An exponent wider than the comb
takes the builtin pow, and a modulus below _HOT_MIN_MODULUS (512 bits),
where the comb would lose, marks nothing.  Either way the result is
exactly pow(base, exp, modulus).

The use counter and the tables are module state, both bounded: at most
_MAX_COUNTED counted pairs and _MAX_TABLES tables, each evicting the
least recently used.  The bookkeeping runs under a lock; a build runs
outside it, so two threads may build the same table at once, which is
idempotent (both build the same entries).  Marks and per-call combs are
thread-local, so no thread sees another's.  Which entries a comb power
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
from contextlib import contextmanager
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
# Per-call comb of a base that a hot block marks.  At 2048/256 bits a
# build is 192 squarings and a power 64 squarings and at most 64
# multiplications.  A build and two powers take 0.7 of the time of two
# builtin pows at 2048 bits, 0.9 at 512, 1.0 at 384 and 1.1 at 256 (timed
# as in scripts/modmath_layer.py), so below 512 bits hot marks nothing.
# A build and one power take about 1.1 of one builtin pow at 2048 bits.
_HOT_ROWS = 4
_HOT_BLOCKS = 1
_HOT_MIN_MODULUS = 1 << (512 - 1)

_lock = threading.Lock()
# (base, modulus) -> [uses, widest exponent in bits], least recent first.
_uses: dict[tuple[int, int], list[int]] = {}
# (base, modulus) -> _Comb, least recent first.
_tables: dict[tuple[int, int], _Comb] = {}
# .marks: (base, modulus) -> _Comb, or None until its first power; absent outside hot blocks.
_local = threading.local()


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

    def __init__(self, base: int, modulus: int, width: int,
                 rows: int = _COMB_ROWS, blocks: int = _COMB_BLOCKS):
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


@contextmanager
def hot(modulus: int, *bases: int):
    """Mark bases that the block powers more than once modulo modulus.

    A marked base gets a per-call comb at its first power in the block
    (sized for that exponent) and loses it at block exit, whether the
    block returns or raises.  An inner block keeps the outer marks and
    restores them at its exit.  A modulus below _HOT_MIN_MODULUS marks
    nothing.
    """
    outer = getattr(_local, "marks", None)
    marks = dict(outer or {})
    if modulus >= _HOT_MIN_MODULUS:
        for base in bases:
            marks.setdefault((base, modulus), None)
    _local.marks = marks
    try:
        yield
    finally:
        _local.marks = outer


def _marked(key: tuple[int, int], exp: int) -> _Comb | None:
    """The per-call comb of a base marked by hot, built at its first power; else None."""
    marks = getattr(_local, "marks", None)
    if not marks or key not in marks:
        return None
    comb = marks[key]
    if comb is None:
        comb = marks[key] = _Comb(*key, exp.bit_length(), _HOT_ROWS, _HOT_BLOCKS)
    return comb


def _power(base: int, exp: int, modulus: int) -> int:
    """pow(base, exp, modulus), from the base's table or per-call comb where it has one."""
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
    if table is None:
        table = _marked(key, exp)
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
