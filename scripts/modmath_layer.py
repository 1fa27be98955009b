#!/usr/bin/env python3
"""Time one modular exponentiation, with and without a fixed-base table.

For each seeded group in SIZES (2048/256 bits first, then the sizes
around the table crossover in modmath) it prints the builtin pow time,
the comb-table evaluation time, the table build time and bytes, and
the number of uses after which a build has paid for itself.  Each time
is the median of REPEAT rounds of POWERS powers of g with random
exponents below q.  Three last lines per group time what a
modmath.PerCallBase does, at its comb shape, when it is powered as the
openers power t: build the per-call comb, then raise the base to q and
to no other exponent (a t that fails t**q = 1), to one random exponent
(PV and UDVS) or to two (Lee-Chang, which also raises t to s*x_B), over
PER_CALL_ROUNDS rounds; against as many builtin pows.  Those two sides differ by a few percent near the
crossover, so they are timed interleaved, in a shuffled order, over
PER_CALL_REPS reps, and each line gives the median of each side.  Run
from the repository root:

    PYTHONPATH=src python3 scripts/modmath_layer.py
"""

import random
import statistics
import sys
from time import perf_counter

from dvsig.groupparams import generate_params
from dvsig.modmath import FixedBase, PerCallBase, _Comb

# (q bits, p bits)
SIZES = [(256, 2048), (64, 512), (64, 384), (64, 256), (48, 160), (16, 64)]
SEED = 0x5EED2026
POWERS = 50
REPEAT = 7
PER_CALL_ROUNDS = 10
PER_CALL_REPS = 40


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

    for n in (1, 2, 3):
        print(per_call_line(params, exps, n))


def per_call_line(params, exps, n: int) -> str:
    """Build a per-call comb and raise g to q and to n - 1 exponents, against n builtin pows."""
    p, q, g = params.p, params.q, params.g
    rounds = [(q, *exps[i * (n - 1):(i + 1) * (n - 1)]) for i in range(PER_CALL_ROUNDS)]

    def per_call(powers):
        marked = _Comb(g, p, q.bit_length(), PerCallBase.rows, PerCallBase.blocks)
        return [marked.power(e) for e in powers]

    def builtin(powers):
        return [pow(g, e, p) for e in powers]

    if any(per_call(r) != builtin(r) for r in rounds):
        sys.exit("per-call comb power differs from the builtin pow")
    times = {per_call: [], builtin: []}
    order = random.Random(SEED + n)
    for _ in range(PER_CALL_REPS):
        for fn in order.sample(list(times), len(times)):
            t0 = perf_counter()
            for r in rounds:
                fn(r)
            times[fn].append((perf_counter() - t0) / len(rounds))
    comb, plain = (statistics.median(times[fn]) * 1000.0 for fn in (per_call, builtin))
    return (f"per-call comb {PerCallBase.rows}x{PerCallBase.blocks}, build + {n} powers:"
            f" {comb:.4f} ms; {n} builtin pows: {plain:.4f} ms ({plain / comb:.2f}x)")


def main():
    for i, (q_bits, p_bits) in enumerate(SIZES):
        if i:
            print()
        measure(q_bits, p_bits)


if __name__ == "__main__":
    main()
