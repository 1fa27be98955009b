#!/usr/bin/env python3
"""Time one modular exponentiation, with and without a fixed-base table.

For each seeded group in SIZES (2048/256 bits first, then the sizes
around the table crossover in modmath) it prints the builtin pow time,
the comb-table evaluation time, the table build time and bytes, and
the number of uses after which a build has paid for itself.  Each time
is the median of REPEAT rounds of POWERS powers of g with random
exponents below q.  A last line per group times what a
modmath.PerCallBase does when it is powered twice, as sdvs_mr._recover
powers t: build the per-call comb, then raise the base to q and to a
random exponent, for each of the first PER_CALL_PAIRS exponents;
against two builtin pows.  Run from the repository root:

    PYTHONPATH=src python3 scripts/modmath_layer.py
"""

import random
import statistics
import sys
from time import perf_counter

from dvsig.groupparams import generate_params
from dvsig.modmath import FixedBase, PerCallBase, _Comb

# (q bits, p bits)
SIZES = [(256, 2048), (64, 256), (48, 160), (16, 64)]
SEED = 0x5EED2026
POWERS = 50
REPEAT = 7
PER_CALL_PAIRS = 10


def median_ms(fn, args) -> float:
    rounds = []
    for _ in range(REPEAT):
        t0 = perf_counter()
        for a in args:
            fn(a)
        rounds.append((perf_counter() - t0) / len(args))
    return statistics.median(rounds) * 1000.0


def measure(q_bits: int, p_bits: int):
    params = generate_params(q_bits, p_bits, random.Random(SEED))
    p, q, g = params.p, params.q, params.g
    rng = random.Random(SEED + 1)
    exps = [rng.randrange(q) for _ in range(POWERS)]

    builds = []
    for _ in range(REPEAT):
        t0 = perf_counter()
        table = _Comb(g, p, q.bit_length(), FixedBase.rows, FixedBase.blocks)
        builds.append(perf_counter() - t0)
    if any(table.power(e) != pow(g, e, p) for e in exps):
        sys.exit("table power differs from the builtin pow")
    builtin = median_ms(lambda e: pow(g, e, p), exps)
    comb = median_ms(table.power, exps)
    build = statistics.median(builds) * 1000.0
    size = sys.getsizeof(table.entries) + sum(sys.getsizeof(x) for x in table.entries)

    print(f"group: {p_bits}/{q_bits} bits, seed {SEED:#x}")
    print(f"builtin pow: {builtin:.4f} ms")
    print(f"table pow: {comb:.4f} ms ({builtin / comb:.2f}x)")
    print(f"table build: {build:.3f} ms")
    print(f"table bytes: {size} ({len(table.entries)} residues, exponents up to {table.width} bits)")
    repaid = f"{build / (builtin - comb):.1f} uses" if comb < builtin else "never"
    print(f"build repaid after: {repaid}")

    def per_call(e):
        marked = _Comb(g, p, q.bit_length(), PerCallBase.rows, PerCallBase.blocks)
        return marked.power(q), marked.power(e)

    pairs = exps[:PER_CALL_PAIRS]
    if any(per_call(e) != (pow(g, q, p), pow(g, e, p)) for e in pairs):
        sys.exit("per-call comb power differs from the builtin pow")
    twice = median_ms(per_call, pairs)
    builtin_twice = median_ms(lambda e: (pow(g, q, p), pow(g, e, p)), pairs)
    print(f"per-call comb, build + 2 powers: {twice:.4f} ms; 2 builtin pows: {builtin_twice:.4f} ms"
          f" ({builtin_twice / twice:.2f}x)")


def main():
    for i, (q_bits, p_bits) in enumerate(SIZES):
        if i:
            print()
        measure(q_bits, p_bits)


if __name__ == "__main__":
    main()
