import os
import random
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from dvsig import modmath, sdvs_mr, sdvs_saeednia, wirefmt
from dvsig.cli import run
from dvsig.groupparams import TOY23, generate_params
from dvsig.keys import KeyPair, keygen
from dvsig.modmath import FixedBase, mod_exp
from dvsig.msghash import hash_to_zq


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """A child process's environment, with this checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def subgroup(params):
    """All q powers of g, in exponent order.  Toy-scale groups only."""
    out, value = [], 1
    for _ in range(params.q):
        out.append(value)
        value = value * params.g % params.p
    return out


@pytest.fixture(scope="session")
def toy():
    return TOY23


@pytest.fixture(scope="session")
def toy_signer():
    # x = 3 -> y = 4**3 mod 23 = 18
    return KeyPair(x=3, y=18)


@pytest.fixture(scope="session")
def toy_verifier():
    # x = 5 -> y = 4**5 mod 23 = 12
    return KeyPair(x=5, y=12)


@pytest.fixture(scope="session")
def midsize():
    # big enough for payload framing, small enough to be instant
    return generate_params(16, 64, random.Random(0xC0FFEE))


@pytest.fixture(scope="session")
def big():
    return generate_params(256, 2048, random.Random(0x5EED2026))


@pytest.fixture(scope="session")
def big_signer(big):
    return keygen(big, random.Random(101))


@pytest.fixture(scope="session")
def big_verifier(big):
    return keygen(big, random.Random(202))


@pytest.fixture(scope="session")
def bits256():
    """A 256-bit group, below the modulus where modmath builds a comb."""
    params = generate_params(64, 256, random.Random(3))
    assert params.p.bit_length() == 256
    return params


@pytest.fixture(scope="session")
def bits511():
    """A 511-bit group, the widest below the modulus where modmath builds a comb."""
    params = generate_params(64, 511, random.Random(3))
    assert params.p.bit_length() == 511
    return params


@pytest.fixture(scope="session")
def wide():
    """A group whose modulus reaches modmath's tables and per-call combs (512 bits)."""
    params = generate_params(64, 512, random.Random(3))
    assert params.p >= modmath._TABLE_MIN_MODULUS
    return params


@pytest.fixture(scope="session")
def wide_tabled(wide):
    """(signer, verifier) on wide, with g and both keys powered until their tables answer."""
    rng = random.Random(17)
    pairs = keygen(wide, rng), keygen(wide, rng)
    for base in (wide.g, *(pair.y for pair in pairs)):
        for _ in range(FixedBase.after):
            mod_exp(base, wide.q - 1, wide.p)
        assert base.comb is not None and base.comb.width >= wide.q.bit_length()
    return pairs


STUBBED = ["--hash", "stub", "--allow-insecure"]
KEY_SEEDS = {"signer": 11, "verifier": 22}


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory):
    """cli_files(params, message=None): a new directory of files, written as the CLI writes
    them: params, the keygen --seed KEY_SEEDS key pairs, and each scheme's signature
    `<scheme>.sig` (sign --seed 3, designate --seed 4).  With message bytes the signatures
    sign the file m.bin under the production hash; without, residue 7 under the stub hash.
    A dict of paths by name, with "dir" and the "message" and "hash" flags; never overwrite
    its files."""

    def write(params, message: bytes | None = None) -> dict:
        d = tmp_path_factory.mktemp("cli")
        f = {"dir": d, **{name: str(d / name) for name in (
            "params", "m.bin", "signer.sec", "signer.pub", "verifier.sec", "verifier.pub",
            "saeednia.sig", "leechang.sig", "pv.sig", "udvs.sig")}}
        (d / "params").write_text(wirefmt.armor(params))
        if message is None:
            del f["m.bin"]
            f["message"], f["hash"] = ["--raw-residue", "7"], STUBBED
        else:
            (d / "m.bin").write_bytes(message)
            f["message"], f["hash"] = ["--message", f["m.bin"]], []
        for role, seed in KEY_SEEDS.items():
            assert run(["keygen", "--params", f["params"], "--seed", str(seed),
                        "--out-secret", f[f"{role}.sec"], "--out-public", f[f"{role}.pub"]]) == 0
        group = ["--params", f["params"], *f["hash"]]
        to_verifier = ["--verifier-key", f["verifier.pub"]]
        for scheme, verifier in (("saeednia", to_verifier), ("leechang", to_verifier), ("pv", [])):
            assert run(["sign", "--scheme", scheme, *group, "--key", f["signer.sec"], *verifier,
                        *f["message"], "--seed", "3", "--out", f[f"{scheme}.sig"]]) == 0
        assert run(["designate", *group, "--signer-key", f["signer.pub"], *to_verifier,
                    "--in", f["pv.sig"], "--seed", "4", "--out", f["udvs.sig"]]) == 0
        return f

    return write


@pytest.fixture()
def second_worker_exits(monkeypatch):
    """The second process started (a pool's second worker) reads one task and exits with 3."""
    real, started = subprocess.Popen, []
    exiting = "import marshal, sys; marshal.load(sys.stdin.buffer); exit(3)"

    def popen(args, **kwargs):
        started.append(args)
        return real([sys.executable, "-c", exiting] if len(started) == 2 else args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)


Power = namedtuple("Power", "base exp modulus result")


class Powers(list):
    """Each exponentiation as a Power; called with an operation, (its result, its count)."""

    def __call__(self, operation):
        self.clear()
        return operation(), len(self)

    def take(self, count, operation):
        """operation's result, once it took count exponentiations."""
        result, taken = self(operation)
        assert taken == count, (taken, count)
        return result


@pytest.fixture()
def powers(monkeypatch):
    """Every exponentiation: mod_exp and pow_in_subgroup both pass through modmath._power."""
    calls, power = Powers(), modmath._power
    monkeypatch.setattr(modmath, "_power",
                        lambda *args: calls.append(Power(*args, power(*args))) or calls[-1].result)
    return calls


@pytest.fixture()
def hashed(monkeypatch):
    """The (m, u) of every hash the scheme modules take, in order."""
    inputs = []
    for module in (sdvs_mr, sdvs_saeednia):
        monkeypatch.setattr(module, "hash_to_zq",
                            lambda m, u, *rest: inputs.append((m, u)) or hash_to_zq(m, u, *rest))
    return inputs
