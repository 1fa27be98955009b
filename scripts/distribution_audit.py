#!/usr/bin/env python3
"""Audit the distribution and floor claims on toy23, exhaustively.

For each simulatable scheme: enumerate every signer randomness and every
simulator randomness, compare the two signature multisets exactly, then
measure the random-forgery acceptance rate and (for the recovery
schemes) the wrong-key recovery census.  Keys and forgery tuples come
from random.Random(SEED); each scheme draws TRIALS tuples.
"""

import random

from dvsig.groupparams import TOY23, validate_params
from dvsig.keys import keygen
from dvsig.msghash import raw_message
from dvsig.oracle import (
    SIMULATABLE_SCHEMES,
    SCHEME_LEECHANG,
    SCHEME_UDVS,
    SCHEMES,
    check_indistinguishable,
    enumerate_real,
    enumerate_simulated,
    forgery_acceptance,
    wrong_key_recovery_census,
)


SEED = 0
TRIALS = 10_000


def main():
    rng = random.Random(SEED)
    params = TOY23
    assert validate_params(params).valid
    signer = keygen(params, rng)
    verifier = keygen(params, rng)
    while verifier.x == signer.x:
        verifier = keygen(params, rng)
    m = raw_message(7, params)

    print(f"group: p={params.p} q={params.q} g={params.g}")
    print(f"keys: x_A={signer.x} x_B={verifier.x}   message: {m.value}\n")

    for scheme in SIMULATABLE_SCHEMES:
        real = enumerate_real(params, signer, verifier, m, scheme)
        sim = enumerate_simulated(params, signer, verifier, m, scheme)
        report = check_indistinguishable(real, sim)
        verdict = "EQUAL" if report.equal else "DIFFER"
        print(f"{scheme:10s} real={real.total:6d} simulated={sim.total:6d} multisets {verdict}")
        for line in report.lines:
            print(f"    {line}")

    print()
    bound = 2 / params.q
    for scheme in SCHEMES:
        accepted, trials = forgery_acceptance(
            params, signer, verifier, m, scheme, TRIALS, rng
        )
        print(f"{scheme:10s} random-tuple acceptance {accepted}/{trials}"
              f" = {accepted / trials:.4f}  (bound {bound:.4f})")

    print()
    for scheme in (SCHEME_LEECHANG, SCHEME_UDVS):
        census = wrong_key_recovery_census(params, signer, verifier, m, scheme)
        print(f"{scheme:10s} wrong-key recovery: {census.true_message}/{census.cases}"
              f" true-message hits, all on zero blinding: "
              f"{census.true_message == census.unblinded};"
              f" hash accepts {census.hash_accepted}/{census.cases}")


if __name__ == "__main__":
    main()
