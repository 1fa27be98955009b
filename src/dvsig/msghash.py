"""Message encoding into Z_p and the two-input hash into Z_q.

Messages are residues m in [1, p-1].  On groups large enough for byte
framing, a payload is encoded as the big-endian integer of
0x01 || payload, which keeps m >= 1 and makes decoding unambiguous.
A bare residue ("raw-residue mode") is supplied and reported as an
integer; it is all that toy groups carry.  Recovery decodes a residue
that carries the framing and returns any other one bare, so it never fails.

The hash H(m, u) -> Z_q comes in two modes: a production mode backed by
SHA-256 with a fixed domain tag, and a hand-computable stub
(m + u) mod q used by the worked vectors and the enumeration oracle.
Both modes return values in [0, q).

SHA-256 comes from the interpreter's builtin module (_sha256 up to
Python 3.11, _sha2 from 3.12), as CPython's own random module takes its
SHA-512: importing hashlib loads OpenSSL's libcrypto, about 3.6 MB
resident in every process, for one short digest per sign or opening.
hashlib is the fallback where that module is missing; both give the
same digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import MalformedEncoding, MessageTooLong, OutOfRange
from .groupparams import GroupParams

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

_HASH_TAG = b"DVS-H1"
_PAYLOAD_PREFIX = 0x01


class HashMode(Enum):
    PRODUCTION = "production"
    STUB = "stub"


@dataclass(frozen=True)
class Message:
    """A message residue; payload is None for a bare residue."""

    value: int
    payload: bytes | None = None


def payload_capacity(params: GroupParams) -> int:
    """Largest payload byte length the group can frame (negative: none)."""
    return params.p.bit_length() // 8 - 2


def supports_payload(params: GroupParams) -> bool:
    return payload_capacity(params) >= 0


def encode_message(payload: bytes, params: GroupParams) -> Message:
    """Frame payload bytes as a residue in [1, p-1]."""
    capacity = payload_capacity(params)
    if capacity < 0 or len(payload) > capacity:
        raise MessageTooLong(
            f"payload of {len(payload)} bytes exceeds capacity "
            f"{max(capacity, 0)} for a {params.p.bit_length()}-bit modulus"
        )
    value = int.from_bytes(bytes([_PAYLOAD_PREFIX]) + payload, "big")
    return Message(value=value, payload=bytes(payload))


def decode_message(value: int, params: GroupParams) -> bytes:
    """Invert encode_message, stripping the leading prefix byte."""
    if not 1 <= value < params.p:
        raise MalformedEncoding(f"residue {value} outside [1, p-1]")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if raw[0] != _PAYLOAD_PREFIX:
        raise MalformedEncoding("residue does not start with the payload prefix byte")
    return raw[1:]


def raw_message(value: int, params: GroupParams) -> Message:
    """Wrap a bare residue as a message (toy / raw-residue mode)."""
    if not 1 <= value < params.p:
        raise OutOfRange(f"message residue must lie in [1, {params.p - 1}]")
    return Message(value=value)


def recovered_message(value: int, params: GroupParams) -> Message:
    """A recovered residue, its payload decoded where it carries the framing; never raises."""
    if supports_payload(params):
        try:
            return Message(value=value, payload=decode_message(value, params))
        except MalformedEncoding:
            pass
    return Message(value=value)


def hash_to_zq(m: int, u: int, params: GroupParams, mode: HashMode) -> int:
    """H(m, u) in [0, q) over residues already reduced mod p."""
    if mode is HashMode.STUB:
        return (m + u) % params.q
    digest = sha256()
    digest.update(_HASH_TAG)
    for value in (m, u):
        magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
        digest.update(len(magnitude).to_bytes(4, "big"))
        digest.update(magnitude)
    return int.from_bytes(digest.digest(), "big") % params.q
