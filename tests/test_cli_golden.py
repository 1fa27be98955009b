"""Seeded CLI output pinned across commits by SHA-256 digest.

Running the same commit twice cannot show a changed draw order: both
runs agree with each other.  These digests were recorded from an
earlier commit, so a change in how `sign`, `simulate` or `designate`
turns a seed into randomness (which component is drawn first, from
Z_q or Z_q*, and how a degenerate hash is redrawn) fails here.  Each
case runs under several seeds; on toy23 Saeednia redraws for some of
them (see test_seeds_cover_a_saeednia_redraw).
"""

import hashlib
import random

import pytest

from conftest import KEY_SEEDS
from dvsig.cli import run
from dvsig.errors import DegenerateHash
from dvsig.groupparams import TOY23
from dvsig.keys import keygen
from dvsig.modmath import sample_uniform
from dvsig.msghash import HashMode, raw_message
from dvsig.sdvs_saeednia import SaeedniaNonces, sds_sign, sds_simulate

SEEDS = range(24)

CASES = {
    "sign-saeednia": lambda f: ["sign", "--scheme", "saeednia", "--key", f["signer.sec"],
                                "--verifier-key", f["verifier.pub"], *f["message"]],
    "sign-leechang": lambda f: ["sign", "--scheme", "leechang", "--key", f["signer.sec"],
                                "--verifier-key", f["verifier.pub"], *f["message"]],
    "sign-pv": lambda f: ["sign", "--scheme", "pv", "--key", f["signer.sec"], *f["message"]],
    "simulate-saeednia": lambda f: ["simulate", "--scheme", "saeednia", "--key", f["verifier.sec"],
                                    "--signer-key", f["signer.pub"], *f["message"]],
    "simulate-leechang": lambda f: ["simulate", "--scheme", "leechang", "--key", f["verifier.sec"],
                                    "--signer-key", f["signer.pub"], *f["message"]],
    "simulate-udvs": lambda f: ["simulate", "--scheme", "udvs", "--key", f["verifier.sec"],
                                "--signer-key", f["signer.pub"], *f["message"]],
    "designate": lambda f: ["designate", "--signer-key", f["signer.pub"],
                            "--verifier-key", f["verifier.pub"], "--in", f["pv.sig"]],
}

GOLDEN = {
    ("toy23-stub", "designate"):
        "b602af6af9c7757e4a2bbb0baf4151ea7b57d93e6032bedfc8e35da2c5647cc4",
    ("toy23-stub", "sign-leechang"):
        "3a04a3dd109c64abf3b241fe457951079a51817087e02750f8c188b4cb216950",
    ("toy23-stub", "sign-pv"):
        "601438df03227b299569a4eb839a404dd39ab8edaaaa394b5b843bb4e3aff269",
    ("toy23-stub", "sign-saeednia"):
        "b0c622001b713378dfecac7837afe7c3f9b58bba62ac3954074c42f16a8d32f2",
    ("toy23-stub", "simulate-leechang"):
        "02c4090e9258db23dc970fd4c6f0ad302bb5e77752b70bf94ce695acd9f9b4f2",
    ("toy23-stub", "simulate-saeednia"):
        "3d828fae922caf31aca741512dbaaaebda4d385b59f385fcfa5bed7a7cfc5286",
    ("toy23-stub", "simulate-udvs"):
        "dfb65c4e52aa53be661e47c0cdcde18d574b5d747bc1577dd23bb582490e0458",
    ("midsize-production", "designate"):
        "be8ccc5c0a4e91db5c3ec5f12314c07a9627d35c4250a4805e28b90a802f7a15",
    ("midsize-production", "sign-leechang"):
        "287920d568d8eca48f833780efbd6cfef3e5be0d9d29ef7195645b86bb7c81d9",
    ("midsize-production", "sign-pv"):
        "5027dc78b24ea3140915ab80e9903eb81ceb289d02632ca9ef659dc179f0d222",
    ("midsize-production", "sign-saeednia"):
        "63976e6da2e81b521a8bdf8280045f2a2898279080bd0bf2da6b170345f34c27",
    ("midsize-production", "simulate-leechang"):
        "a0069c445730ba03daf82728c3772a0cee5edd76f9e718bc5697f14df43ef080",
    ("midsize-production", "simulate-saeednia"):
        "f2c0714c2c6a15f8a7cda8d3edc616d98e8315f166fd1588db9bb00e7a27240d",
    ("midsize-production", "simulate-udvs"):
        "322e37810b54e23c8cbf9aa581784e2170f636bee35484fc091fc00ccb70628c",
}


def seeded_digest(f: dict, case: str) -> str:
    """SHA-256 over the files one subcommand writes under every seed in SEEDS."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        out = f["dir"] / f"{case}.{seed}.out"
        argv = [*CASES[case](f), "--params", f["params"], *f["hash"], "--seed", str(seed)]
        assert run([*argv, "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=["toy23-stub", "midsize-production"])
def setting(request, cli_files, midsize):
    files = cli_files(TOY23) if request.param == "toy23-stub" else cli_files(midsize, b"golden")
    return request.param, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_recorded_digest(setting, case):
    name, files = setting
    assert seeded_digest(files, case) == GOLDEN[name, case]


def test_seeds_cover_a_saeednia_redraw():
    """On toy23 some seed's first draw hashes to r = 0, for signing and for simulating."""
    params = TOY23
    signer = keygen(params, random.Random(KEY_SEEDS["signer"]))  # as `keygen --seed` writes
    verifier = keygen(params, random.Random(KEY_SEEDS["verifier"]))
    m = raw_message(7, params)

    def some_first_draw_degenerate(operation) -> bool:
        for seed in SEEDS:
            rng = random.Random(seed)
            try:
                operation(sample_uniform(params.q, False, rng), sample_uniform(params.q, True, rng))
            except DegenerateHash:
                return True
        return False

    assert some_first_draw_degenerate(
        lambda k, t: sds_sign(params, signer.x, verifier.y, m, SaeedniaNonces(k, t), HashMode.STUB))
    assert some_first_draw_degenerate(
        lambda s, r: sds_simulate(params, signer.y, verifier.x, m, s, r, HashMode.STUB))
