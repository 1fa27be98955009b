#!/usr/bin/env python3
"""Benchmark of the dvsig library, CLI and oracle.

Run from the repository root:

    python3 perfbench/run.py --workload fullsize-lib --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client in a single process.
Set-up (group generation from the seed, validation, key generation) is
timed several times and its median reported; then the workload runs its
iterations until --seconds have passed. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no tracing. With --trace 1 the run measures the same
window untraced, replays exactly the same iterations with every public
dvsig function wrapped (see tracer.py), and reports the per-layer
metrics of BENCHMARK.json plus the tracing overhead. The traced run also
writes its full per-layer report and its spans to .bench_trace/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
WORKLOADS = {"fullsize-lib": "lifecycle", "cli-pipeline": "pipeline"}
# Workload functions each workload does not call by design; every other
# traced function must be called at least once in its traced run.
UNREACHED = {
    "fullsize-lib": {"pv_scheme.psv_matches", "cli.run", "oracle.enumerate_real",
                     "oracle.enumerate_simulated", "oracle.check_indistinguishable"},
    "cli-pipeline": set(),
}
STARTUP_PROBES = 9


class UsageFailure(Exception):
    pass


def load_sources() -> dict:
    """Put this checkout's src/ first on the path; return BENCHMARK.json."""
    src = ROOT / "src"
    if not (src / "dvsig" / "__init__.py").is_file():
        raise UsageFailure(f"no dvsig sources under {src}; run from the repository root")
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise UsageFailure(f"{spec} is missing")
    sys.path.insert(0, str(src))
    import dvsig

    if Path(dvsig.__file__).resolve().parent != (src / "dvsig").resolve():
        raise UsageFailure(f"imported dvsig from {dvsig.__file__}, not from {src}")
    return json.loads(spec.read_text())


def window(step, seconds: float, min_iterations: int, tally) -> tuple[int, float]:
    """Run step(i, tally) until `seconds` have passed and min_iterations are done."""
    t0 = perf_counter()
    i = 0
    while i < min_iterations or perf_counter() - t0 < seconds:
        step(i, tally)
        i += 1
    return i, perf_counter() - t0


def replay(step, iterations: int, tally) -> float:
    t0 = perf_counter()
    for i in range(iterations):
        step(i, tally)
    return perf_counter() - t0


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def startup_ms() -> tuple[float, float]:
    """Median interpreter start and `import dvsig.cli` on top of it, in ms."""
    from common import child_env

    env = child_env(ROOT)

    def median_ms(code: str) -> float:
        times = []
        for _ in range(STARTUP_PROBES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append((perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    interp = median_ms("pass")
    return interp, median_ms("import dvsig.cli") - interp


# --------------------------------------------------------------- untraced


def run_untraced(module, ctx, seconds: float) -> tuple[dict, object]:
    from common import Tally, latency_metrics, tail_percentile, timed_setups

    ctx.group, setup_s = timed_setups(ctx.setup_once)
    tally = Tally()
    iterations, elapsed = window(ctx.iteration, seconds, module.MIN_ITERATIONS, tally)
    ctx.finish(tally)
    tail_pct = tail_percentile(module.MIN_ITERATIONS * module.SAMPLES_PER_ITERATION)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": tally.ops / elapsed,
        **latency_metrics(tally, tail_pct),
        "peak_rss_mb": peak_rss_mb(children=module.NAME == "cli-pipeline"),
    }
    samples = {side: len(v) for side, v in tally.latencies.items()}
    print(f"{module.NAME}: {iterations} iterations, {tally.ops} operations in {elapsed:.3f} s; "
          f"tail = p{tail_pct:g}; samples {samples}")
    return metrics, tally


# ----------------------------------------------------------------- traced


def run_traced(module, ctx, seconds: float, seed: int) -> tuple[dict, object]:
    from common import Tally
    from dvsig import keys, msghash
    from lifecycle import check_simulated, lifecycle
    from tracer import Tracer

    setup_trace = Tracer()
    with setup_trace:
        ctx.group = ctx.setup_once(0)

    tally = Tally()
    iterations, t_untraced = window(ctx.iteration, seconds, module.MIN_ITERATIONS, tally)
    ctx.finish(tally)
    untraced_tally = tally
    if ctx.replay != ctx.iteration:
        untraced_tally = Tally()
        t_untraced = replay(ctx.replay, iterations, untraced_tally)
        ctx.finish(untraced_tally)
        tally.absorb(untraced_tally)

    work_trace = Tracer()
    traced_tally = Tally()
    probe_simulated = []
    params = ctx.group.params
    probe_message = msghash.encode_message(b"count probe", params)
    with work_trace:
        t_traced = replay(ctx.replay, iterations, traced_tally)
        # One call of every operation, so that each exponentiation count
        # is measured on every workload, and one more key generation.
        probe_rng = random.Random(f"dvsig-bench/{seed}/probe")
        lifecycle(ctx.group, ctx.mode, probe_message, probe_rng, traced_tally, probe_simulated,
                  tamper=False)
        keys.keygen(params, probe_rng)
    ctx.finish(traced_tally)
    check_simulated(probe_simulated, traced_tally)
    tally.absorb(traced_tally)

    layers, problems = layer_metrics(setup_trace, work_trace)
    layers["cli.interp_start_ms"], layers["cli.import_ms"] = startup_ms()
    layers["trace.overhead_pct"] = (t_traced / t_untraced - 1.0) * 100.0
    layers.update(module_layers(module, work_trace, tally, untraced_tally, traced_tally))
    zero = set(work_trace.zero_call_names()) & set(setup_trace.zero_call_names())
    unexpected = sorted(zero - UNREACHED[module.NAME])
    if unexpected:
        problems.append(f"traced functions never called: {unexpected}")
    for problem in problems:
        tally.fail(problem)

    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    stem = out / f"{module.NAME}-seed{seed}"
    setup_trace.write_spans(f"{stem}-setup.spans.tsv.gz")
    work_trace.write_spans(f"{stem}-work.spans.tsv.gz")
    report = {
        "workload": module.NAME, "seed": seed, "iterations": iterations,
        "untraced_s": t_untraced, "traced_s": t_traced,
        "spans": {"setup": setup_trace.n_spans, "work": work_trace.n_spans},
        "zero_call_functions": sorted(zero), "problems": problems, "layers": layers,
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, value in sorted(layers.items()):
        print(f"layer {name} = {value:.6g}")
    print(f"{module.NAME}: {iterations} iterations untraced {t_untraced:.3f} s, traced "
          f"{t_traced:.3f} s; {work_trace.n_spans} spans; report {stem}.json")
    return layers, tally


def layer_metrics(setup_trace, work_trace) -> tuple[dict, list]:
    """Per-layer metrics every workload measures, and any inconsistency found."""
    from tracer import OPERATIONS, SPAN_FUNCTIONS

    layers = {}
    problems = []
    w, s = work_trace, setup_trace
    exp_names = ("modmath.mod_exp", "modmath.pow_in_subgroup")
    layers["modmath.exp_calls"] = sum(w.n_calls(n) for n in exp_names)
    layers["modmath.inv_calls"] = w.n_calls("modmath.mod_inv")
    layers["modmath.busy_s"] = w.busy_s(*exp_names, "modmath.mod_inv")
    for op, fn in OPERATIONS.items():
        counts = w.exp_per_call(fn) + s.exp_per_call(fn)
        if len(counts) != 1:
            problems.append(f"{op}: exponentiations per accepted call vary: {dict(counts)}")
        layers[f"modmath.exp_per_op.{op}"] = max(counts) if counts else 0
    layers["msghash.hash_calls"] = w.n_calls("msghash.hash_to_zq")
    layers["msghash.hash_busy_s"] = w.busy_s("msghash.hash_to_zq")
    layers["msghash.codec_busy_s"] = w.busy_s("msghash.encode_message", "msghash.recovered_message")
    layers["wirefmt.encode_busy_s"] = w.busy_s("wirefmt.encode")
    layers["wirefmt.decode_busy_s"] = w.busy_s("wirefmt.decode")
    layers["wirefmt.armor_busy_s"] = w.self_s("wirefmt.armor", "wirefmt.dearmor")
    for mod in ("sdvs_saeednia", "sdvs_mr", "pv_scheme", "udvs"):
        for fn in SPAN_FUNCTIONS[mod]:
            name = f"{mod}.{fn}"
            layers[f"{name}.calls"] = w.n_calls(name)
            layers[f"{name}.self_s"] = w.self_s(name)
            layers[f"{name}.p50_ms"] = w.p50_ms(name)
    random_signs = w.n_calls("sdvs_saeednia.sds_sign_random")
    layers["sdvs_saeednia.sign_attempts_per_sig"] = (
        w.calls_under("sdvs_saeednia.sds_sign", "sdvs_saeednia.sds_sign_random") / random_signs
        if random_signs else 0.0)
    layers["groupparams.generate_params.busy_s"] = s.busy_s("groupparams.generate_params")
    layers["groupparams.validate_params.busy_s"] = s.busy_s("groupparams.validate_params")
    layers["groupparams.is_probable_prime.calls"] = s.n_calls("groupparams.is_probable_prime")
    layers["keys.keygen.busy_s"] = s.busy_s("keys.keygen")
    return layers, problems


def module_layers(module, w, window_tally, untraced_tally, traced_tally) -> dict:
    """Per-layer metrics of the CLI and the oracle, which only cli-pipeline reaches."""
    if module.NAME != "cli-pipeline":
        return {}
    out = {}
    for sub, seconds in sorted(window_tally.by_kind.items()):
        out[f"cli.{sub}.p50_ms"] = statistics.median(seconds) * 1000.0
    for sub, seconds in sorted(untraced_tally.by_kind.items()):
        out[f"cli.run.{sub}.busy_ms"] = statistics.median(seconds) * 1000.0
    out["cli.run.calls"] = w.n_calls("cli.run")
    fns = ("oracle.enumerate_real", "oracle.enumerate_simulated", "oracle.check_indistinguishable")
    for name in fns:
        out[f"{name}.busy_s"] = w.busy_s(name)
    out["oracle.self_s"] = w.self_s(*fns)
    out["oracle.tuples"] = traced_tally.counts["oracle.tuples"]
    return out


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_sources()
    except UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    module = __import__(WORKLOADS[args.workload])
    ctx = module.Context(args.seed, ROOT)
    try:
        if args.trace:
            metrics, tally = run_traced(module, ctx, args.seconds, args.seed)
            declared = spec["per_layer"]
        else:
            metrics, tally = run_untraced(module, ctx, args.seconds)
            declared = spec["end_to_end"]
    finally:
        close = getattr(ctx, "close", None)
        if close is not None:
            close()
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"error_rate = {tally.failed}/{tally.ops} = {tally.failed / max(tally.ops, 1):.6g}")
    for error in tally.errors:
        print(f"failed: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
