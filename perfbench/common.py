"""Shared pieces of the benchmark: set-up, operation records and statistics."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from dvsig import groupparams, keys, wirefmt
from dvsig.errors import InvalidSignature

# 2048/256-bit groups, as the full-size acceptance test uses.
FULL_Q_BITS, FULL_P_BITS = 256, 2048
# Toy group for the CLI's exhaustive oracle. q is pinned so that every
# seed enumerates the same number of tuples; p, g, keys and message vary.
TOY_Q_BITS, TOY_P_BITS, TOY_Q = 5, 16, 23

# Set-up is repeated at least this often, and until this much time has
# been spent, and its median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5

# Percentiles the tail metrics choose from.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SIGNER, VERIFIER = "signer", "verifier"


class BenchError(Exception):
    """The benchmark cannot run in this directory or configuration."""


@dataclass
class Group:
    params: groupparams.GroupParams
    signer: keys.KeyPair
    verifier: keys.KeyPair


def child_env(root) -> dict:
    """Environment for child interpreters: this checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def make_group(seed: int, repeat: int, toy: bool) -> Group:
    """Group generation, validation and two distinct key pairs, all from the seed.

    Library functions are looked up on their modules at call time, here
    and throughout the benchmark, so that the tracer's wrappers apply.
    """
    rng = random.Random(f"dvsig-bench/{seed}/setup/{repeat}")
    if toy:
        params = groupparams.generate_params(TOY_Q_BITS, TOY_P_BITS, rng)
        while params.q != TOY_Q:
            params = groupparams.generate_params(TOY_Q_BITS, TOY_P_BITS, rng)
    else:
        params = groupparams.generate_params(FULL_Q_BITS, FULL_P_BITS, rng)
    report = groupparams.validate_params(params)
    if not report.valid:
        raise BenchError(f"generated group failed validation: {report.failures}")
    signer = keys.keygen(params, rng, role="signer")
    verifier = keys.keygen(params, rng, role="verifier")
    while verifier.x == signer.x:
        verifier = keys.keygen(params, rng, role="verifier")
    return Group(params, signer, verifier)


def timed_setups(setup_once) -> tuple[object, float]:
    """Run setup_once(repeat) several times; first result and median seconds."""
    times = []
    first = None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        result = setup_once(len(times))
        times.append(perf_counter() - t0)
        if first is None:
            first = result
    return first, statistics.median(times)


# ------------------------------------------------------------------ records


@dataclass
class Tally:
    """Completed operations of one pass: latencies by side, failures, notes."""

    latencies: dict = field(default_factory=lambda: {SIGNER: [], VERIFIER: []})
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)  # seconds by operation kind
    counts: Counter = field(default_factory=Counter)

    def record(self, side: str | None, seconds: float, ok: bool, what: str,
               kind: str | None = None) -> None:
        """Count one operation; side None counts it without a latency sample."""
        self.ops += 1
        if side is not None:
            self.latencies[side].append(seconds)
        if kind is not None:
            self.by_kind.setdefault(kind, []).append(seconds)
        if not ok:
            self.fail(what)

    def absorb(self, other: "Tally") -> None:
        """Add another pass's operations and failures to this one."""
        self.ops += other.ops
        self.failed += other.failed
        self.errors += other.errors[:max(0, 20 - len(self.errors))]

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def tail_percentile(min_samples: int) -> float:
    """Highest grid percentile that leaves at least ten of min_samples beyond it."""
    for pct in TAIL_GRID:
        if min_samples * (1 - pct / 100.0) >= 10:
            return pct
    return TAIL_GRID[-1]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def latency_metrics(tally: Tally, tail_pct: float) -> dict:
    out = {}
    for side, prefix in ((SIGNER, "sign"), (VERIFIER, "verify")):
        values = tally.latencies[side]
        if not values:
            raise BenchError(f"no {side}-side samples")
        out[f"{prefix}_p50_ms"] = percentile(values, 50.0) * 1000.0
        out[f"{prefix}_tail_ms"] = percentile(values, tail_pct) * 1000.0
    return out


# ----------------------------------------------------------------- checks


def wire_round_trip_ok(sig) -> bool:
    """Raw and armored round trips give back the value and the same bytes."""
    blob = wirefmt.encode(sig)
    back = wirefmt.decode(blob)
    armored = wirefmt.loads(wirefmt.armor(sig).encode("ascii"))
    return back == sig and wirefmt.encode(back) == blob and armored == sig


def flip_one_bit(sig, rng: random.Random):
    """The signature with one bit of one field flipped."""
    name = rng.choice([f.name for f in dataclasses.fields(sig)])
    value = getattr(sig, name)
    bit = rng.randrange(max(1, value.bit_length()))
    return dataclasses.replace(sig, **{name: value ^ (1 << bit)})


def rejects(verify) -> bool:
    """True when verify() refuses: returns False or raises InvalidSignature."""
    try:
        return verify() is False
    except InvalidSignature:
        return True

