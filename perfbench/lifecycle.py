"""Workload fullsize-lib: the full library lifecycle of one message per iteration.

Per message: Saeednia sign, verify, simulate; Lee-Chang sign, recover,
simulate; PV sign, verify; UDVS designate, DV recover, DV simulate; a raw
and an armored wire round trip of every signature; and one single-bit
tamper per signature, which must be rejected. That is 7 signer-side and
4 + 7 verifier-side operations. Simulated signatures are checked to
verify after the timed window, outside it.
"""

from __future__ import annotations

import random
from time import perf_counter

from dvsig import msghash, pv_scheme, sdvs_mr, sdvs_saeednia, udvs
from dvsig.errors import DVSError
from dvsig.modmath import sample_uniform

from common import (SIGNER, VERIFIER, Group, Tally, flip_one_bit, make_group, rejects,
                    wire_round_trip_ok)

NAME = "fullsize-lib"
# At least this many lifecycles per window, so that the signer-side tail
# percentile (7 samples per lifecycle) is always the same one.
MIN_ITERATIONS = 29
SAMPLES_PER_ITERATION = 7


class Context:
    def __init__(self, seed: int, root):
        self.seed = seed
        self.group: Group | None = None
        self.mode = msghash.HashMode.PRODUCTION
        self.simulated = []  # (what, verify callable) checked after the window

    def setup_once(self, repeat: int) -> Group:
        return make_group(self.seed, repeat, toy=False)

    def message(self, rng: random.Random):
        payload = rng.randbytes(rng.randrange(msghash.payload_capacity(self.group.params) + 1))
        return msghash.encode_message(payload, self.group.params)

    def iteration(self, i: int, tally: Tally) -> None:
        rng = random.Random(f"dvsig-bench/{self.seed}/life/{i}")
        lifecycle(self.group, self.mode, self.message(rng), rng, tally, self.simulated, tamper=True)

    replay = iteration

    def finish(self, tally: Tally) -> None:
        check_simulated(self.simulated, tally)


def _op(tally: Tally, side: str, what: str, call, check):
    """Time call() as one operation; a DVSError or a failed check counts as failed."""
    t0 = perf_counter()
    try:
        result = call()
    except DVSError as exc:
        tally.record(side, perf_counter() - t0, False, f"{what}: {exc!r}")
        return None
    seconds = perf_counter() - t0
    try:
        ok = check(result)
    except DVSError as exc:
        ok, what = False, f"{what} check: {exc!r}"
    tally.record(side, seconds, ok, what)
    return result


def _signed(tally: Tally, what: str, call):
    """A signer-side operation whose output must survive the wire round trip."""
    return _op(tally, SIGNER, what, call, wire_round_trip_ok)


def lifecycle(group: Group, mode, m, rng: random.Random, tally: Tally, simulated: list,
              tamper: bool) -> None:
    params, a, b = group.params, group.signer, group.verifier
    q = params.q

    def same_message(recovered) -> bool:
        return recovered.value == m.value and recovered.payload == m.payload

    checks = []  # (what, signature, verify callable taking a signature)

    def sae_verify(sig):
        return sdvs_saeednia.sds_verify(params, a.y, b.x, m, sig, mode)

    def mr_verify(sig):
        return sdvs_mr.mr_recover_verify(params, a.y, b.x, sig, mode)

    def pv_verify(sig):
        return pv_scheme.psv(params, a.y, sig, mode)

    def dv_verify(sig):
        return udvs.dsv_recover(params, a.y, b.x, sig, mode)

    sig = _signed(tally, "saeednia.sign", lambda: sdvs_saeednia.sds_sign_random(
        params, a.x, b.y, m, rng, mode))
    if sig is not None:
        _op(tally, VERIFIER, "saeednia.verify", lambda: sae_verify(sig), lambda ok: ok is True)
        checks.append(("saeednia.sign", sig, sae_verify))
    sim = _signed(tally, "saeednia.simulate", lambda: sdvs_saeednia.sds_simulate_random(
        params, a.y, b.x, m, rng, mode))
    if sim is not None:
        checks.append(("saeednia.simulate", sim, sae_verify))
        simulated.append(("saeednia.simulate", lambda sim=sim: sae_verify(sim) is True))

    nonces = sdvs_mr.random_nonces(params, rng)
    sig = _signed(tally, "leechang.sign", lambda: sdvs_mr.mr_sign(params, a.x, b.y, m, nonces, mode))
    if sig is not None:
        _op(tally, VERIFIER, "leechang.recover", lambda: mr_verify(sig), same_message)
        checks.append(("leechang.sign", sig, mr_verify))
    w1, w2 = sample_uniform(q, True, rng), sample_uniform(q, False, rng)
    sim = _signed(tally, "leechang.simulate", lambda: sdvs_mr.mr_simulate(
        params, a.y, b.x, m, w1, w2, mode))
    if sim is not None:
        checks.append(("leechang.simulate", sim, mr_verify))
        simulated.append(("leechang.simulate", lambda sim=sim: same_message(mr_verify(sim))))

    nonces = sdvs_mr.random_nonces(params, rng)
    pv_sig = _signed(tally, "pv.sign", lambda: pv_scheme.psg(params, a.x, m, nonces, mode))
    if pv_sig is not None:
        _op(tally, VERIFIER, "pv.verify", lambda: pv_verify(pv_sig), same_message)
        checks.append(("pv.sign", pv_sig, pv_verify))
        d = sample_uniform(q, False, rng)
        dv = _signed(tally, "udvs.designate", lambda: udvs.dsg(params, a.y, b.y, pv_sig, d, mode))
        if dv is not None:
            _op(tally, VERIFIER, "udvs.recover", lambda: dv_verify(dv), same_message)
            checks.append(("udvs.designate", dv, dv_verify))
    rands = udvs.SimulatorRandomness(
        w1=sample_uniform(q, True, rng), w2=sample_uniform(q, False, rng),
        d=sample_uniform(q, False, rng))
    sim = _signed(tally, "udvs.simulate", lambda: udvs.dv_simulate(params, a.y, b.x, m, rands, mode))
    if sim is not None:
        checks.append(("udvs.simulate", sim, dv_verify))
        simulated.append(("udvs.simulate", lambda sim=sim: same_message(dv_verify(sim))))

    if tamper:
        for what, good, verify in checks:
            bad = flip_one_bit(good, rng)
            _op(tally, VERIFIER, f"{what} tampered", lambda: rejects(lambda: verify(bad)),
                lambda rejected: rejected)


def check_simulated(simulated: list, tally: Tally) -> None:
    """Every simulated signature must verify for its message."""
    for what, accepted in simulated:
        try:
            ok = accepted()
        except DVSError as exc:
            ok = False
            what = f"{what}: {exc!r}"
        if not ok:
            tally.fail(f"{what} does not verify")
    simulated.clear()
