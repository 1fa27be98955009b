"""Canonical byte encodings for params, keys, and signatures.

Layout: one version byte (0x01), one kind byte, then the kind's fields
in fixed order, each as a 4-byte big-endian length followed by the
minimal big-endian magnitude (zero encodes as length 0, no bytes).
Decoding is strict: unknown version or kind, truncation, a leading
zero magnitude byte, or trailing bytes all reject, so each value has
exactly one valid byte string.

Files carry blobs in a PEM-like armor (base64 between BEGIN/END
lines whose label names the blob's kind); pipes carry raw blobs.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses

from .errors import Malformed
from .groupparams import GroupParams
from .keys import PublicKey, SecretKey
from .pv_scheme import PVSignature
from .sdvs_mr import RecoverySignature
from .sdvs_saeednia import SaeedniaSignature
from .udvs import DVSignature

VERSION = 0x01

KIND_SAEEDNIA_SIG = 0x01
KIND_RECOVERY_SIG = 0x02
KIND_PV_SIG = 0x03
KIND_DV_SIG = 0x04
KIND_PARAMS = 0x10
KIND_PUBLIC_KEY = 0x11
KIND_SECRET_KEY = 0x12

_LAYOUT = [
    (KIND_PARAMS, GroupParams, "DVS PARAMS"),
    (KIND_PUBLIC_KEY, PublicKey, "DVS PUBLIC KEY"),
    (KIND_SECRET_KEY, SecretKey, "DVS SECRET KEY"),
    (KIND_SAEEDNIA_SIG, SaeedniaSignature, "DVS SIGNATURE"),
    (KIND_RECOVERY_SIG, RecoverySignature, "DVS SIGNATURE"),
    (KIND_PV_SIG, PVSignature, "DVS SIGNATURE"),
    (KIND_DV_SIG, DVSignature, "DVS SIGNATURE"),
]

# Wire field order is the dataclass field order.
_BY_KIND = {kind: (cls, tuple(f.name for f in dataclasses.fields(cls)), label) for kind, cls, label in _LAYOUT}
_BY_TYPE = {cls: (kind, names, label) for kind, (cls, names, label) in _BY_KIND.items()}

_ARMOR_LABELS = {label for _, _, label in _LAYOUT}


def _encode_int(value: int) -> bytes:
    if value < 0:
        raise ValueError("wire integers are non-negative")
    magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return len(magnitude).to_bytes(4, "big") + magnitude


def encode(value) -> bytes:
    """Canonical blob for a params, key, or signature object."""
    try:
        kind, fields, _ = _BY_TYPE[type(value)]
    except KeyError:
        raise TypeError(f"cannot encode {type(value).__name__} onto the wire") from None
    out = bytearray((VERSION, kind))
    for name in fields:
        out += _encode_int(getattr(value, name))
    return bytes(out)


def decode(blob: bytes):
    """Strict inverse of encode; raises Malformed on any framing defect."""
    if len(blob) < 2:
        raise Malformed("blob shorter than the version/kind header")
    if blob[0] != VERSION:
        raise Malformed(f"unknown version byte 0x{blob[0]:02x}")
    entry = _BY_KIND.get(blob[1])
    if entry is None:
        raise Malformed(f"unknown kind byte 0x{blob[1]:02x}")
    cls, fields, _ = entry
    values = []
    offset = 2
    for _ in fields:
        if offset + 4 > len(blob):
            raise Malformed("truncated length prefix")
        length = int.from_bytes(blob[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(blob):
            raise Malformed("truncated integer magnitude")
        magnitude = blob[offset : offset + length]
        offset += length
        if length > 0 and magnitude[0] == 0:
            raise Malformed("non-minimal integer magnitude")
        values.append(int.from_bytes(magnitude, "big"))
    if offset != len(blob):
        raise Malformed("trailing bytes after final field")
    return cls(**dict(zip(fields, values)))


def armor(value) -> str:
    """PEM-like text block wrapping the canonical blob."""
    body = base64.b64encode(encode(value)).decode("ascii")
    label = _BY_TYPE[type(value)][2]
    lines = [body[i : i + 64] for i in range(0, len(body), 64)] or [""]
    return f"-----BEGIN {label}-----\n" + "\n".join(lines) + f"\n-----END {label}-----\n"


def dearmor(text: str) -> bytes:
    """Extract the blob from an armored block; header/footer must agree."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) < 2:
        raise Malformed("armored block too short")
    head, tail = lines[0], lines[-1]
    if not (head.startswith("-----BEGIN ") and head.endswith("-----")):
        raise Malformed("missing BEGIN header")
    if not (tail.startswith("-----END ") and tail.endswith("-----")):
        raise Malformed("missing END footer")
    label = head[len("-----BEGIN ") : -len("-----")]
    if tail[len("-----END ") : -len("-----")] != label:
        raise Malformed("BEGIN/END labels disagree")
    if label not in _ARMOR_LABELS:
        raise Malformed(f"unknown armor label {label!r}")
    try:
        return base64.b64decode("".join(lines[1:-1]), validate=True)
    except binascii.Error as exc:
        raise Malformed(f"bad base64 body: {exc}") from exc


def loads(data: bytes):
    """Decode raw or armored bytes into the carried object; an armor label must name its kind."""
    if data.lstrip().startswith(b"-----BEGIN "):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Malformed("armored block is not ASCII") from exc
        value = decode(dearmor(text))
        label = _BY_TYPE[type(value)][2]
        if not text.lstrip().startswith(f"-----BEGIN {label}-----"):
            raise Malformed(f"a {type(value).__name__} blob must be armored as {label!r}")
        return value
    return decode(data)


def loads_expected(data: bytes, cls):
    """loads plus a type check, for call sites that know what they want."""
    value = loads(data)
    if not isinstance(value, cls):
        raise Malformed(
            f"expected a {cls.__name__} blob, found {type(value).__name__}"
        )
    return value
