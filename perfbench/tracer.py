"""Per-layer tracing of the dvsig package from outside it.

Every dvsig module binds the functions it uses with ``from ... import``,
so patching ``dvsig.modmath.mod_exp`` alone would count nothing.
``Tracer.install`` therefore replaces each traced function under every
name that refers to it, in every loaded dvsig module, and ``remove``
puts the originals back.

Two kinds of wrapper:

* span functions (schemes, wirefmt, oracle, groupparams, keys, cli.run)
  record one span per call: name, start, end and parent span, plus the
  leaf calls and leaf time made directly under it and the number of
  exponentiations in its whole subtree;
* leaf functions (modmath, msghash) are called hundreds of thousands of
  times by one exhaustive oracle call, so they keep no span of their
  own: their counts and time are added to the innermost open span.

Spans live in flat arrays until ``write_spans`` saves them.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import dvsig.cli
import dvsig.groupparams
import dvsig.keys
import dvsig.modmath
import dvsig.msghash
import dvsig.oracle
import dvsig.pv_scheme
import dvsig.sdvs_mr
import dvsig.sdvs_saeednia
import dvsig.udvs
import dvsig.wirefmt

SPAN_FUNCTIONS = {
    "sdvs_saeednia": ("sds_sign", "sds_sign_random", "sds_verify", "sds_simulate",
                      "sds_simulate_random"),
    "sdvs_mr": ("mr_sign", "mr_recover_verify", "mr_simulate"),
    "pv_scheme": ("psg", "psv", "psv_matches"),
    "udvs": ("dsg", "dsv_recover", "dv_simulate"),
    "wirefmt": ("encode", "decode", "armor", "dearmor", "loads"),
    "oracle": ("enumerate_real", "enumerate_simulated", "check_indistinguishable"),
    "groupparams": ("generate_params", "validate_params", "is_probable_prime"),
    "keys": ("keygen",),
    "cli": ("run",),
}
LEAF_FUNCTIONS = {
    "modmath": ("mod_exp", "pow_in_subgroup", "mod_inv"),
    "msghash": ("hash_to_zq", "encode_message", "recovered_message"),
}
EXPONENTIATIONS = ("modmath.mod_exp", "modmath.pow_in_subgroup")

# Operation kinds whose exponentiation count is reported, by traced function.
OPERATIONS = {
    "saeednia.sign": "sdvs_saeednia.sds_sign",
    "saeednia.verify": "sdvs_saeednia.sds_verify",
    "saeednia.simulate": "sdvs_saeednia.sds_simulate",
    "leechang.sign": "sdvs_mr.mr_sign",
    "leechang.recover": "sdvs_mr.mr_recover_verify",
    "leechang.simulate": "sdvs_mr.mr_simulate",
    "pv.sign": "pv_scheme.psg",
    "pv.verify": "pv_scheme.psv",
    "udvs.designate": "udvs.dsg",
    "udvs.recover": "udvs.dsv_recover",
    "udvs.simulate": "udvs.dv_simulate",
    "keys.keygen": "keys.keygen",
}

# Open-frame slots: name index, span id, child time, leaf calls, leaf time, exponentiations.
_NAME, _ID, _CHILD, _LEAFN, _LEAFT, _EXP = range(6)


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for table in (SPAN_FUNCTIONS, LEAF_FUNCTIONS)
            for mod, fns in table.items() for fn in fns]


class Tracer:
    """Spans and per-function aggregates for one phase of a run."""

    def __init__(self):
        self.names = traced_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.durations = [array("d") for _ in range(n)]
        # exponentiations per accepted call (no exception, result not False)
        self.exp_counts = [Counter() for _ in range(n)]
        self.by_parent = Counter()  # (name index, parent name index) -> calls
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_leaf_calls = array("q")
        self.span_leaf_time = array("d")
        self.span_exp = array("q")
        self._next_id = 0
        self._root = [-1, -1, 0.0, 0, 0.0, 0]
        self._stack = [self._root]
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def _leaf(self, fn, idx: int):
        calls, busy, stack = self.calls, self.busy, self._stack
        is_exp = self.names[idx] in EXPONENTIATIONS

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[idx] += 1
                busy[idx] += dt
                frame = stack[-1]
                frame[_CHILD] += dt
                frame[_LEAFN] += 1
                frame[_LEAFT] += dt
                frame[_EXP] += is_exp

        return wrapper

    def _span(self, fn, idx: int):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [idx, self._next_id, 0.0, 0, 0.0, 0]
            self._next_id += 1
            stack.append(frame)
            accepted = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                accepted = result is not False
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(frame, parent, t0, t1, accepted)

        return wrapper

    def _close(self, frame, parent, t0: float, t1: float, accepted: bool) -> None:
        idx = frame[_NAME]
        dt = t1 - t0
        parent[_CHILD] += dt
        parent[_EXP] += frame[_EXP]
        self.calls[idx] += 1
        self.busy[idx] += dt
        self.self_time[idx] += dt - frame[_CHILD]
        self.durations[idx].append(dt)
        self.by_parent[idx, parent[_NAME]] += 1
        if accepted:
            self.exp_counts[idx][frame[_EXP]] += 1
        self.span_id.append(frame[_ID])
        self.span_name.append(idx)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent[_ID])
        self.span_leaf_calls.append(frame[_LEAFN])
        self.span_leaf_time.append(frame[_LEAFT])
        self.span_exp.append(frame[_EXP])

    # ------------------------------------------------------- install/remove

    def install(self) -> None:
        """Replace every binding of each traced function in every dvsig module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dvsig" or name.startswith("dvsig."))]
        for table, make in ((SPAN_FUNCTIONS, self._span), (LEAF_FUNCTIONS, self._leaf)):
            for mod_name, fns in table.items():
                home = sys.modules[f"dvsig.{mod_name}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = make(original, self.index[f"{mod_name}.{fn_name}"])
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patched.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # ------------------------------------------------------------ queries

    def n_calls(self, name: str) -> int:
        return self.calls[self.index[name]]

    def busy_s(self, *names: str) -> float:
        return sum(self.busy[self.index[n]] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[self.index[n]] for n in names)

    def p50_ms(self, name: str) -> float:
        durations = self.durations[self.index[name]]
        return statistics.median(durations) * 1000.0 if durations else 0.0

    def calls_under(self, name: str, parent: str) -> int:
        return self.by_parent[self.index[name], self.index[parent]]

    def exp_per_call(self, name: str) -> Counter:
        return self.exp_counts[self.index[name]]

    def zero_call_names(self) -> list[str]:
        return [name for name, n in zip(self.names, self.calls) if n == 0]

    @property
    def n_spans(self) -> int:
        return len(self.span_id)

    def write_spans(self, path) -> None:
        """Spans as gzipped TSV; the leaf columns aggregate modmath and msghash calls."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\tleaf_calls\tleaf_s\texponentiations\n")
            names = self.names
            rows = zip(self.span_id, self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_leaf_calls, self.span_leaf_time,
                       self.span_exp)
            out.writelines(
                f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{lc}\t{lt:.9f}\t{x}\n"
                for i, n, s, e, p, lc, lt, x in rows
            )
