"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime
budget where one is stated."""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout

import pytest

from dvsig import wirefmt
from dvsig.cli import run
from dvsig.errors import InvalidSignature, Malformed
from dvsig.groupparams import TOY23
from dvsig.keys import KeyPair, PublicKey, SecretKey
from dvsig.modmath import sample_uniform
from dvsig.msghash import HashMode, Message, encode_message, raw_message
from dvsig.oracle import (
    SCHEME_LEECHANG,
    SCHEME_PV,
    SCHEME_SAEEDNIA,
    SCHEME_UDVS,
    check_indistinguishable,
    enumerate_real,
    enumerate_simulated,
    forgery_acceptance,
    wrong_key_recovery_census,
)
from dvsig.pv_scheme import PVSignature, psg, psv
from dvsig.sdvs_mr import RecoveryNonces, RecoverySignature, mr_recover_verify, mr_sign, random_nonces
from dvsig.sdvs_saeednia import SaeedniaNonces, SaeedniaSignature, sds_sign, sds_sign_random, sds_verify
from dvsig.udvs import DVSignature, SimulatorRandomness, dsg, dsv_recover, dv_simulate

STUB = HashMode.STUB
PROD = HashMode.PRODUCTION

SIGNER = KeyPair(x=3, y=18)
VERIFIER = KeyPair(x=5, y=12)


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} runtime {elapsed:.2f}s exceeded budget {budget}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {number}] {status} {description} ({elapsed:.2f}s)")


def test_criterion_1_worked_vectors():
    with criterion(1, "toy23 worked vectors reproduce bit-exactly", budget=1.0):
        toy = TOY23
        m = raw_message(7, toy)
        sae = sds_sign(toy, SIGNER.x, VERIFIER.y, m, SaeedniaNonces(k=2, t=3), STUB)
        assert (sae.r, sae.s, sae.t) == (2, 2, 3)
        assert sds_verify(toy, SIGNER.y, VERIFIER.x, m, sae, STUB)

        lee = mr_sign(toy, SIGNER.x, VERIFIER.y, m, RecoveryNonces(k1=2, k2=3), STUB)
        assert (lee.t, lee.c, lee.r, lee.s) == (16, 21, 3, 3)
        assert mr_recover_verify(toy, SIGNER.y, VERIFIER.x, lee, STUB).value == 7

        pv = psg(toy, SIGNER.x, m, RecoveryNonces(k1=2, k2=3), STUB)
        assert (pv.t, pv.c, pv.r, pv.s) == (16, 11, 3, 3)
        assert psv(toy, SIGNER.y, pv, STUB).value == 7

        dv = dsg(toy, SIGNER.y, VERIFIER.y, pv, 4, STUB)
        assert (dv.t, dv.w, dv.r, dv.s, dv.e) == (16, 5, 3, 3, 8)
        assert dsv_recover(toy, SIGNER.y, VERIFIER.x, dv, STUB).value == 7

        sim = dv_simulate(toy, SIGNER.y, VERIFIER.x, m, SimulatorRandomness(2, 5, 4), STUB)
        assert (sim.t, sim.w, sim.r, sim.s, sim.e) == (8, 7, 1, 8, 8)
        assert dsv_recover(toy, SIGNER.y, VERIFIER.x, sim, STUB).value == 7


def test_criterion_2_exhaustive_round_trips():
    with criterion(2, "exhaustive toy23 round-trips succeed for every nonce", budget=10.0):
        toy = TOY23
        q = toy.q
        m = raw_message(7, toy)

        count = 0
        for k1 in range(1, q):
            for k2 in range(q):
                nonces = RecoveryNonces(k1, k2)
                lee = mr_sign(toy, SIGNER.x, VERIFIER.y, m, nonces, STUB)
                assert mr_recover_verify(toy, SIGNER.y, VERIFIER.x, lee, STUB).value == 7
                pv = psg(toy, SIGNER.x, m, nonces, STUB)
                assert psv(toy, SIGNER.y, pv, STUB).value == 7
                count += 1
        assert count == 110

        count = 0
        for k1 in range(1, q):
            for k2 in range(q):
                pv = psg(toy, SIGNER.x, m, RecoveryNonces(k1, k2), STUB)
                for d in range(q):
                    dv = dsg(toy, SIGNER.y, VERIFIER.y, pv, d, STUB)
                    assert dsv_recover(toy, SIGNER.y, VERIFIER.x, dv, STUB).value == 7
                    count += 1
        assert count == 1210

        # m = 12 (congruent to 1 mod q) keeps the hash away from r = 0, so
        # every one of the 110 (k, t) pairs signs and verifies
        m_clean = raw_message(12, toy)
        count = 0
        for k in range(q):
            for t in range(1, q):
                sae = sds_sign(toy, SIGNER.x, VERIFIER.y, m_clean, SaeedniaNonces(k, t), STUB)
                assert sds_verify(toy, SIGNER.y, VERIFIER.x, m_clean, sae, STUB)
                count += 1
        assert count == 110


def test_criterion_3_indistinguishability():
    with criterion(3, "real and simulated multisets are exactly equal", budget=30.0):
        toy = TOY23
        m = raw_message(7, toy)

        lee_real = enumerate_real(toy, SIGNER, VERIFIER, m, SCHEME_LEECHANG)
        lee_sim = enumerate_simulated(toy, SIGNER, VERIFIER, m, SCHEME_LEECHANG)
        assert lee_real.total == lee_sim.total == 110
        assert check_indistinguishable(lee_real, lee_sim).equal

        dv_real = enumerate_real(toy, SIGNER, VERIFIER, m, SCHEME_UDVS)
        dv_sim = enumerate_simulated(toy, SIGNER, VERIFIER, m, SCHEME_UDVS)
        assert dv_real.total == dv_sim.total == 1210
        assert check_indistinguishable(dv_real, dv_sim).equal

        # Saeednia equality is conditional on r != 0: the signer refuses the
        # degenerate tuples the simulator cannot reach, and what remains of
        # both supports matches exactly (100 of 110 tuples for m = 7)
        sae_real = enumerate_real(toy, SIGNER, VERIFIER, m, SCHEME_SAEEDNIA)
        sae_sim = enumerate_simulated(toy, SIGNER, VERIFIER, m, SCHEME_SAEEDNIA)
        assert sae_real.total == sae_sim.total == 100
        assert check_indistinguishable(sae_real, sae_sim).equal


def test_criterion_4_unforgeability_floor(big, big_signer, big_verifier):
    """Uniformly random tuples only: it bounds how often a random tuple is accepted, and says
    nothing about a forger who builds t from y_A (tests/test_threats.py)."""
    with criterion(4, "random tuples are rejected (toy <= 2/q, full-size: all)", budget=120.0):
        toy = TOY23
        m = raw_message(7, toy)
        bound = 2 / toy.q
        for scheme in (SCHEME_SAEEDNIA, SCHEME_LEECHANG, SCHEME_PV, SCHEME_UDVS):
            accepted, trials = forgery_acceptance(
                toy, SIGNER, VERIFIER, m, scheme, 10_000, random.Random(f"toy-{scheme}")
            )
            assert trials == 10_000
            assert accepted / trials <= bound, (scheme, accepted)

        big_m = encode_message(b"unforgeability floor probe", big)
        for scheme in (SCHEME_SAEEDNIA, SCHEME_LEECHANG, SCHEME_PV, SCHEME_UDVS):
            accepted, trials = forgery_acceptance(
                big, big_signer, big_verifier, big_m, scheme, 1000,
                random.Random(f"big-{scheme}"), PROD,
            )
            assert trials == 1000
            assert accepted == 0, scheme


def test_criterion_5_confidentiality():
    with criterion(5, "wrong keys recover the message only on zero blinding"):
        toy = TOY23
        m = raw_message(7, toy)
        for scheme, sig_count in ((SCHEME_LEECHANG, 110), (SCHEME_UDVS, 1210)):
            census = wrong_key_recovery_census(toy, SIGNER, VERIFIER, m, scheme)
            wrong_keys = toy.q - 2
            assert census.cases == sig_count * wrong_keys
            # the true message appears exactly when the blinding exponent was
            # zero (the signature carried it unblinded), never otherwise
            assert census.true_message == census.unblinded
            assert census.hash_accepted / census.cases <= 2 / toy.q


def _flip_component_bit(sig, rng):
    fields = list(sig.__dataclass_fields__)
    name = rng.choice(fields)
    value = getattr(sig, name)
    flipped = value ^ (1 << rng.randrange(max(value.bit_length(), 8)))
    return type(sig)(**{**{f: getattr(sig, f) for f in fields}, name: flipped})


def test_criterion_6_full_size_smoke(big, big_signer, big_verifier):
    with criterion(6, "100 full-size messages round-trip; single-bit tampers reject", budget=60.0):
        rng = random.Random(0xFACADE)
        capacity = 254
        x_a, y_a = big_signer.x, big_signer.y
        x_b, y_b = big_verifier.x, big_verifier.y
        for i in range(100):
            payload = rng.randbytes(rng.randrange(capacity + 1))
            m = encode_message(payload, big)

            sae = sds_sign_random(big, x_a, y_b, m, rng)
            assert sds_verify(big, y_a, x_b, m, sae)
            if i % 2:
                bad_m = Message(value=m.value ^ (1 << rng.randrange(m.value.bit_length() + 1)))
                assert not sds_verify(big, y_a, x_b, bad_m, sae)
            else:
                assert not sds_verify(big, y_a, x_b, m, _flip_component_bit(sae, rng))

            lee = mr_sign(big, x_a, y_b, m, random_nonces(big, rng))
            assert mr_recover_verify(big, y_a, x_b, lee).payload == payload
            with pytest.raises(InvalidSignature):
                mr_recover_verify(big, y_a, x_b, _flip_component_bit(lee, rng))

            pv = psg(big, x_a, m, random_nonces(big, rng))
            assert psv(big, y_a, pv).payload == payload
            with pytest.raises(InvalidSignature):
                psv(big, y_a, _flip_component_bit(pv, rng))

            dv = dsg(big, y_a, y_b, pv, sample_uniform(big.q, False, rng))
            assert dsv_recover(big, y_a, x_b, dv).payload == payload
            with pytest.raises(InvalidSignature):
                dsv_recover(big, y_a, x_b, _flip_component_bit(dv, rng))


def _run_pipeline(workdir):
    art = lambda name: str(workdir / name)
    steps = [
        ["params", "gen", "--preset", "toy23", "--out", art("toy.params")],
        ["params", "gen", "--q-bits", "8", "--p-bits", "24", "--seed", "5", "--out", art("small.params")],
        ["keygen", "--params", art("toy.params"), "--seed", "11",
         "--out-secret", art("signer.sec"), "--out-public", art("signer.pub")],
        ["keygen", "--params", art("toy.params"), "--seed", "22",
         "--out-secret", art("verifier.sec"), "--out-public", art("verifier.pub")],
        ["sign", "--scheme", "pv", "--params", art("toy.params"), "--key", art("signer.sec"),
         "--raw-residue", "7", "--seed", "33", "--hash", "stub", "--allow-insecure",
         "--out", art("m.pvsig")],
        ["designate", "--params", art("toy.params"), "--signer-key", art("signer.pub"),
         "--verifier-key", art("verifier.pub"), "--in", art("m.pvsig"), "--seed", "44",
         "--hash", "stub", "--allow-insecure", "--out", art("m.dvsig")],
        ["simulate", "--scheme", "udvs", "--params", art("toy.params"), "--key", art("verifier.sec"),
         "--signer-key", art("signer.pub"), "--raw-residue", "7", "--seed", "55",
         "--hash", "stub", "--allow-insecure", "--out", art("m.simsig")],
        ["dverify", "--params", art("toy.params"), "--key", art("verifier.sec"),
         "--signer-key", art("signer.pub"), "--in", art("m.dvsig"),
         "--hash", "stub", "--allow-insecure"],
    ]
    for argv in steps:
        with redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    return sorted(path.name for path in workdir.iterdir())


def test_criterion_7_determinism_and_wire_fuzz(tmp_path):
    with criterion(7, "seeded pipelines are byte-identical; framing fuzz rejects"):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        names_a = _run_pipeline(run_a)
        names_b = _run_pipeline(run_b)
        assert names_a == names_b and len(names_a) == 9
        for name in names_a:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

        corpus = [
            wirefmt.encode(TOY23),
            wirefmt.encode(PublicKey(18)),
            wirefmt.encode(SecretKey(5)),
            wirefmt.encode(SaeedniaSignature(2, 2, 3)),
            wirefmt.encode(RecoverySignature(16, 21, 3, 3)),
            wirefmt.encode(PVSignature(2**2000, 2**1999 + 7, 2**255, 0)),
            wirefmt.encode(DVSignature(16, 5, 3, 3, 8)),
        ]
        rng = random.Random(0xF0220)
        rejected = survived = 0
        for _ in range(10_000):
            blob = bytearray(rng.choice(corpus))
            mutation = rng.randrange(3)
            if mutation == 0:
                position = rng.randrange(len(blob))
                blob[position] ^= 1 << rng.randrange(8)
            elif mutation == 1:
                blob = blob[: rng.randrange(len(blob))]
            else:
                blob += bytes([rng.randrange(256)])
            mutant = bytes(blob)
            try:
                value = wirefmt.decode(mutant)
            except Malformed:
                rejected += 1
                continue
            # a surviving mutant must itself be a canonical encoding --
            # framing was not broken, only a field value changed
            assert wirefmt.encode(value) == mutant
            survived += 1
        assert rejected + survived == 10_000
        assert rejected > 8000  # the vast majority of mutations break framing
