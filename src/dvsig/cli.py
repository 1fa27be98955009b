"""Command line front end for the full workflow.

Subcommands: params gen|check, keygen, sign, verify, recover,
designate, dverify, simulate, oracle; _FLAGS defines each shared flag
once.  File arguments accept "-" for raw blobs on stdin/stdout, at most
one "-" each way; named files are written armored.  Commands that load
--params refuse (exit 3) a group failing q >= 2, q | p - 1 or 1 < g < p,
the checks that need no exponentiation; `params check` runs them all.
Every --signer-key and --verifier-key is refused (exit 3) unless its key
is an order-q element in (1, p), and keygen writes no other key
(keys.validate_public); no opener tests a loaded key again.

Exit codes: 0 success/accept, 1 verification reject, 2 usage error,
3 malformed input.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import oracle as oraclemod
from .errors import (DVSError, DegenerateHash, GenerationTimeout, GroupTooLarge, InvalidSignature,
                     Malformed, OutOfRange)
from .groupparams import PRESETS, GroupParams, _shape_failures, generate_params, validate_params
from .keys import PublicKey, SecretKey, keygen, validate_public
from .msghash import HashMode, Message, encode_message, raw_message, recovered_message
from .pv_scheme import PVSignature, psv_matches
from .udvs import dsg
from . import wirefmt
from .modmath import sample_space, sample_uniform

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


class UsageError(Exception):
    """Flag combinations the parser alone cannot rule out."""


class _In(str):
    """A file argument that is read; "-" is stdin."""


class _Out(str):
    """A file argument that is written; "-" is stdout."""


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _write_value(path: str, value) -> None:
    if path == "-":
        sys.stdout.buffer.write(wirefmt.encode(value))
        sys.stdout.buffer.flush()
    else:
        Path(path).write_text(wirefmt.armor(value))


def _load(path: str | None, cls, flag: str):
    if path is None:
        raise UsageError(f"{flag} is required for this invocation")
    return wirefmt.loads_expected(_read_bytes(path), cls)


def _load_params(args) -> GroupParams:
    """The --params group, malformed when a check that needs no exponentiation fails."""
    params = _load(args.params, GroupParams, "--params")
    failures = _shape_failures(params)
    if failures:
        raise Malformed(f"--params: {failures[0]}")
    return params


def _load_public(path: str | None, params: GroupParams, flag: str) -> PublicKey:
    """The public key in path, malformed unless it is an order-q element in (1, p)."""
    key = _load(path, PublicKey, flag)
    try:
        return PublicKey(validate_public(params, key.y))
    except Malformed as exc:
        raise Malformed(f"{flag}: {exc}") from None


def _one_dash_each_way(args) -> None:
    """A usage error for two "-" file arguments, which would share stdin or stdout."""
    for kind, stream in ((_In, "stdin"), (_Out, "stdout")):
        if sum(isinstance(value, kind) and value == "-" for value in vars(args).values()) > 1:
            raise UsageError(f"only one file argument can be '-' ({stream})")


def _make_rng(args) -> random.Random:
    if args.seed is not None:
        return random.Random(args.seed)
    return random.SystemRandom()


def _hash_mode(args) -> HashMode:
    if args.hash == "stub":
        if not args.allow_insecure:
            raise UsageError("--hash=stub requires --allow-insecure")
        return HashMode.STUB
    return HashMode.PRODUCTION


def _refuse(args, names, context: str) -> None:
    """A usage error for the first flag of names that was given; context cannot use any of them."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to {context}")


def _residue(value: int, params: GroupParams, flag: str) -> Message:
    """The bare residue a flag gives; one outside [1, p) is a usage error, not a malformed file."""
    try:
        return raw_message(value, params)
    except OutOfRange as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _message(args, params: GroupParams, file_attr: str, residue_attr: str) -> Message | None:
    """The message a file flag or a residue flag names; None for no expectation."""
    path, residue = getattr(args, file_attr, None), getattr(args, residue_attr, None)
    if path is not None and residue is not None:
        flags = " or ".join(f"--{name.replace('_', '-')}" for name in (file_attr, residue_attr))
        raise UsageError(f"give either {flags}, not both")
    if residue is not None:
        return _residue(residue, params, f"--{residue_attr.replace('_', '-')}")
    if path is not None:
        return encode_message(_read_bytes(path), params)
    if file_attr == "message":
        raise UsageError("a message is required (--message FILE or --raw-residue N)")
    return None


def _print_recovered(msg: Message, raw: bool | None) -> None:
    if msg.payload is not None and not raw:
        print(f"payload-hex: {msg.payload.hex()}")
    else:
        print(f"residue: {msg.value}")


# ---------------------------------------------------------------- handlers


def cmd_params_gen(args) -> int:
    if args.preset is not None:
        _refuse(args, ("seed", "q_bits", "p_bits"), "--preset")
        params = PRESETS[args.preset]
    else:
        params = generate_params(256 if args.q_bits is None else args.q_bits,
                                 2048 if args.p_bits is None else args.p_bits, _make_rng(args))
    _write_value(args.out, params)
    return EXIT_OK


def cmd_params_check(args) -> int:
    params = _load(args.in_path, GroupParams, "--in")
    report = validate_params(params)
    if report.valid:
        print("VALID")
        return EXIT_OK
    for failure in report.failures:
        print(f"INVALID: {failure}")
    return EXIT_REJECT


def cmd_keygen(args) -> int:
    params = _load_params(args)
    pair = keygen(params, _make_rng(args))
    _write_value(args.out_secret, pair.secret())
    _write_value(args.out_public, pair.public())
    return EXIT_OK


def cmd_sign(args) -> int:
    scheme = oraclemod.SCHEMES[args.scheme]
    _refuse(args, () if scheme.designated else ("verifier_key",), f"--scheme {args.scheme}")
    params = _load_params(args)
    mode = _hash_mode(args)
    rng = _make_rng(args)
    message = _message(args, params, "message", "raw_residue")
    signer = _load(args.key, SecretKey, "--key")
    verifier = _load_public(args.verifier_key, params, "--verifier-key") if scheme.designated else None
    sig = sample_space(params.q, scheme.sign_space, rng, lambda randomness: scheme.sign(
        params, signer, verifier, message, randomness, mode))
    _write_value(args.out, sig)
    return EXIT_OK


def cmd_open(args) -> int:
    """verify, recover and dverify: open a signature, print ACCEPT or REJECT."""
    scheme = oraclemod.SCHEMES[args.scheme]
    # A recovering scheme carries its message; a non-recovering one has none to expect or to
    # print raw.  An undesignated one opens with public values only.
    unusable = ("message", "raw_residue") if scheme.recovers else ("expect_message", "expect_residue",
                                                                     "raw")
    _refuse(args, unusable + (() if scheme.designated else ("key",)), f"--scheme {args.scheme}")
    params = _load_params(args)
    mode = _hash_mode(args)
    signer = _load_public(args.signer_key, params, "--signer-key")
    verifier = _load(args.key, SecretKey, "--key") if scheme.designated else None
    message = None if scheme.recovers else _message(args, params, "message", "raw_residue")
    sig = _load(args.in_path, scheme.sig_type, "--in")
    # Only `verify` takes an expectation, and PV is the one recovering scheme it offers.
    expected = _message(args, params, "expect_message", "expect_residue")
    if expected is not None and psv_matches(params, signer.y, sig, expected, mode):
        accepted, recovered = True, recovered_message(expected.value, params)
    else:
        recovered = scheme.open(params, signer, verifier, message, sig, mode)
        accepted = expected is None  # with an expectation: valid, but for another message
    print("ACCEPT" if accepted else "REJECT")
    if scheme.recovers:
        _print_recovered(recovered, args.raw)
    return EXIT_OK if accepted else EXIT_REJECT


def cmd_designate(args) -> int:
    params = _load_params(args)
    mode = _hash_mode(args)
    rng = _make_rng(args)
    signer_public = _load_public(args.signer_key, params, "--signer-key").y
    verifier_public = _load_public(args.verifier_key, params, "--verifier-key").y
    pv_sig = _load(args.in_path, PVSignature, "--in")
    d = sample_uniform(params.q, False, rng)
    _write_value(args.out, dsg(params, signer_public, verifier_public, pv_sig, d, mode))
    return EXIT_OK


def cmd_simulate(args) -> int:
    scheme = oraclemod.SCHEMES[args.scheme]
    params = _load_params(args)
    mode = _hash_mode(args)
    rng = _make_rng(args)
    message = _message(args, params, "message", "raw_residue")
    signer = _load_public(args.signer_key, params, "--signer-key")
    verifier = _load(args.key, SecretKey, "--key")
    sig = sample_space(params.q, scheme.sign_space, rng, lambda randomness: scheme.simulate(
        params, signer, verifier, message, randomness, mode))
    _write_value(args.out, sig)
    return EXIT_OK


def cmd_oracle(args) -> int:
    params = _load_params(args)
    if params.q < 3:  # Z_q* would hold one secret, shared by both parties
        raise UsageError(f"the oracle needs q >= 3 for two distinct keys, not q = {params.q}")
    rng = _make_rng(args)
    signer = keygen(params, rng)
    verifier = keygen(params, rng)
    while verifier.x == signer.x:  # toy key spaces are tiny; keep the parties distinct
        verifier = keygen(params, rng)
    message = _residue(args.raw_residue, params, "--raw-residue")
    real = oraclemod.enumerate_real(params, signer, verifier, message, args.scheme)
    simulated = oraclemod.enumerate_simulated(params, signer, verifier, message, args.scheme)
    report = oraclemod.check_indistinguishable(real, simulated)
    print(f"scheme: {args.scheme}")
    print(f"signer-public: {signer.y}")
    print(f"verifier-public: {verifier.y}")
    print(f"message-residue: {message.value}")
    print(f"real-total: {real.total}")
    print(f"simulated-total: {simulated.total}")
    if report.equal:
        print("verdict: INDISTINGUISHABLE")
        return EXIT_OK
    print("verdict: DISTINGUISHABLE")
    for line in report.lines:
        print(f"diff: {line}")
    return EXIT_REJECT


# ------------------------------------------------------------------ parser


# Each flag that more than one subcommand takes; a file flag's type, _In or _Out, tells
# _one_dash_each_way which stream "-" names.  _command gives every flag default=None,
# store_true ones included, unless its settings say otherwise: _refuse and _message tell a
# given flag from an absent one by `is not None`.
_FLAGS = {
    "--scheme": {"required": True},
    "--params": {"required": True, "type": _In},
    "--key": {"type": _In},
    "--signer-key": {"type": _In, "help": "signer public key file"},
    "--verifier-key": {"type": _In, "help": "designated verifier public key file"},
    "--message": {"type": _In, "help": "message payload file ('-' for stdin)"},
    "--raw-residue": {"type": int, "help": "message as a bare residue"},
    "--in": {"dest": "in_path", "required": True, "type": _In},
    "--out": {"required": True, "type": _Out},
    "--raw": {"action": "store_true"},
    "--seed": {"type": int, "help": "deterministic randomness seed"},
    "--hash": {"choices": ["production", "stub"], "default": "production"},
    "--allow-insecure": {"action": "store_true", "help": "required to enable the stub hash"},
}


def _schemes(offered) -> list[str]:
    """The --scheme choices of a command: the SCHEMES names whose entry it is offered, in order."""
    return [name for name, entry in oraclemod.SCHEMES.items() if offered(entry)]


def _command(commands, name: str, handler, summary: str, *flags, **defaults) -> None:
    """Add subcommand name with its flags in help order.  A flag is a name from _FLAGS, or a
    (name, settings) pair whose settings add to or override the shared ones."""
    sub = commands.add_parser(name, help=summary)
    for flag in flags:
        flag, settings = (flag, {}) if isinstance(flag, str) else flag
        sub.add_argument(flag, **{"default": None, **_FLAGS.get(flag, {}), **settings})
    sub.set_defaults(handler=handler, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvsig",
        description="Designated verifier signatures over Schnorr subgroups.",
        epilog="exit codes: 0 accept/success, 1 verification reject, 2 usage error, 3 malformed input",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    params = commands.add_parser("params", help="generate or validate group parameters")
    params_sub = params.add_subparsers(dest="params_command", required=True)
    _command(params_sub, "gen", cmd_params_gen, "generate a fresh group (or emit a preset)",
             ("--q-bits", {"type": int, "help": "subgroup order bits (default 256)"}),
             ("--p-bits", {"type": int, "help": "modulus bits (default 2048)"}),
             ("--preset", {"choices": sorted(PRESETS)}), "--out", "--seed")
    _command(params_sub, "check", cmd_params_check, "validate a params file", "--in")
    _command(commands, "keygen", cmd_keygen, "generate a key pair", "--params",
             ("--out-secret", _FLAGS["--out"]), ("--out-public", _FLAGS["--out"]), "--seed")
    _command(commands, "sign", cmd_sign, "sign a message",
             ("--scheme", {"choices": _schemes(lambda s: not s.designated_later)}), "--params",
             ("--key", {"help": "signer secret key file"}), "--verifier-key", "--message",
             "--raw-residue", "--out", "--seed", "--hash", "--allow-insecure")
    _command(commands, "verify", cmd_open, "verify a signature",
             # A given message, or a recovery from public values alone.
             ("--scheme", {"choices": _schemes(lambda s: not s.recovers or not s.designated)}),
             "--params",
             ("--key", {"help": "verifier secret key file (saeednia)"}), "--signer-key", "--message",
             "--raw-residue", "--in",
             ("--expect-message", {"type": _In,
                                   "help": "payload file the recovered message must equal (pv)"}),
             ("--expect-residue", {"type": int}), ("--raw", {"help": "print the residue undecoded"}),
             "--hash", "--allow-insecure")
    _command(commands, "recover", cmd_open, "recover the message from a signature",
             ("--scheme", {"choices": _schemes(lambda s: s.recovers and not s.designated_later)}),
             "--params",
             ("--key", {"help": "verifier secret key file (leechang)"}), "--signer-key", "--in",
             "--raw", "--hash", "--allow-insecure")
    _command(commands, "designate", cmd_designate, "turn a PV signature into a DV signature",
             "--params", "--signer-key", "--verifier-key", "--in", "--out", "--seed", "--hash",
             "--allow-insecure")
    _command(commands, "dverify", cmd_open, "verify a DV signature and recover the message",
             "--params", ("--key", {"help": "verifier secret key file"}), "--signer-key", "--in",
             "--raw", "--hash", "--allow-insecure", scheme=oraclemod.SCHEME_UDVS)
    _command(commands, "simulate", cmd_simulate, "produce a verifier-side transcript",
             ("--scheme", {"choices": oraclemod.SIMULATABLE_SCHEMES}), "--params",
             ("--key", {"help": "verifier secret key file"}), "--signer-key", "--message",
             "--raw-residue", "--out", "--seed", "--hash", "--allow-insecure")
    _command(commands, "oracle", cmd_oracle, "exhaustive real-vs-simulated distribution check",
             ("--scheme", {"choices": oraclemod.SIMULATABLE_SCHEMES}), "--params",
             ("--raw-residue", {"default": 7, "help": None}), ("--seed", {"default": 0, "help": None}))
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _one_dash_each_way(args)
        return args.handler(args)
    except InvalidSignature:  # a signature that does not open, or a PV one refused for designation
        print("REJECT")
        return EXIT_REJECT
    except (UsageError, GroupTooLarge, DegenerateHash, GenerationTimeout, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DVSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(run())
