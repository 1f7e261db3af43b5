#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the public API.

Run every workload (untraced, then traced for a quarter of the time),
print the end-to-end metrics and the layer table, and write a results
JSON file::

    python benchmarks/e2e/run.py [--seed N] [--out FILE] [--repeat K] [--smoke]

Run one workload and print one JSON object as the last line of standard
output — the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement runs in its own child process (``PYTHONHASHSEED=0``),
so every workload starts from a fresh interpreter and ``rss_mb`` is that
process's peak.  The metric names, units and bounds live in
``BENCHMARK.json`` at the repository root; ``README.md`` explains them.
The exit status is non-zero when any answer was wrong or a child failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Measured rounds below which p95 is refused (see stats.percentile).
MIN_ROUNDS = 200
#: A measured phase stops at this multiple of its target even short of
#: MIN_ROUNDS, so a slow machine fails the percentile instead of hanging.
MAX_STRETCH = 4
#: Fresh set-ups per full run: each one's first round is a cold sample.
COLD_SETUPS = 11
#: More set-ups (without a round) until their total reaches this, for a
#: steady setup_s median on workloads whose set-up is sub-millisecond.
SETUP_SECONDS = 0.25
MAX_SETUPS = 100
#: Share of the run the traced child measures.
TRACED_SHARE = 0.25
#: Traced rounds whose spans are written out (all of them are folded).
SPAN_FILE_ROUNDS = 5
#: Seconds one workload's children may take in total.
DEADLINE = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# the child: one measurement in a fresh interpreter
# ----------------------------------------------------------------------
def _add_paths() -> None:
    """Make this checkout's library and the ``e2e`` package importable."""
    for path in (str(HERE.parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _import_harness():
    """Import the library from this checkout's ``src`` and the benchmark."""
    _add_paths()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
    from e2e import layers, stats, workloads

    return layers, stats, workloads


def _snapshot(sessions: List[Any]) -> Dict[str, Any]:
    counters: Dict[str, float] = {}
    histograms: Dict[str, float] = {}
    interned = 0
    for session in sessions:
        metrics = session.metrics()
        for name, value in metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, histogram in metrics["histograms"].items():
            histograms[name] = histograms.get(name, 0.0) + histogram["sum"]
        interned += metrics["kernel"]["interned"]
    return {"counters": counters, "histograms": histograms, "interned": interned}


def _layer_metrics(layers: Any, recorder: Any, rounds: int, before: Dict[str, Any],
                   after: Dict[str, Any], client_seconds: float, scale: float) -> Dict[str, float]:
    """Fold the traced spans and counter deltas into per-round layer metrics;
    times are multiplied by the run's speed ``scale``."""
    folded = layers.fold(recorder.spans)

    def per_round(value: float) -> float:
        return value / rounds

    def per_round_ms(seconds: float) -> float:
        return seconds / rounds * 1e3 * scale

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    metrics: Dict[str, float] = {}
    for layer in (*layers.LAYERS, *layers.BENCH_LAYERS):
        name = "session.self_ms" if layer == "session" else f"{layer}_ms"
        metrics[name] = per_round_ms(folded.get(layer, {}).get("self_seconds", 0.0))
    metrics["engine.lowerings"] = per_round(delta("plan_cache.lowerings"))
    lookups = delta("plan_cache.hits") + delta("plan_cache.misses")
    metrics["engine.plan_cache_hit_ratio"] = delta("plan_cache.hits") / lookups if lookups else 0.0
    metrics["kernel.interned"] = after["interned"]
    metrics["prob.shannon"] = per_round(delta("prob.decompositions.shannon"))
    metrics["prob.decompositions"] = per_round(
        sum(delta(name) for name in after["counters"] if name.startswith("prob.decompositions."))
    )
    worlds = delta("worlds.evaluated")
    builds = folded.get("semantics.world_build", {}).get("calls", 0)
    metrics["semantics.worlds"] = per_round(worlds)
    metrics["semantics.world_yield_ratio"] = worlds / builds if builds else 0.0
    waited = after["histograms"].get("serve.queue_wait", 0.0) - before["histograms"].get("serve.queue_wait", 0.0)
    metrics["serve.queue_wait_ms"] = per_round_ms(waited)
    # Requests answered on other threads (the server pool) open their own
    # span stacks; what the client waited beyond them is dispatch.
    harness = threading.get_ident()
    served = sum(
        span.seconds for span in recorder.spans
        if span.parent_id is None and span.thread != harness and span.layer == "session"
    )
    metrics["serve.dispatch_ms"] = per_round_ms(client_seconds - served) if served else 0.0
    return metrics


def _timing_metrics(stats: Any, rounds: List[Tuple[float, float]], setups: List[Tuple[float, float]],
                    colds: List[Tuple[float, float]], requests: int) -> Dict[str, Optional[float]]:
    """Latency metrics from ``(taken at, seconds)`` samples."""
    latencies = [seconds for _, seconds in rounds]
    metrics: Dict[str, Optional[float]] = {
        "p50_ms": statistics.median(latencies) * 1e3,
        "qps": requests / sum(latencies),
    }
    try:
        metrics["p95_ms"] = stats.percentile(latencies, 95) * 1e3
    except ValueError:
        metrics["p95_ms"] = None
    if setups:
        metrics["setup_s"] = statistics.median(seconds for _, seconds in setups)
        metrics["cold_ms"] = statistics.median(seconds for _, seconds in colds) * 1e3
    return metrics


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One measurement of one workload, as described by ``spec``."""
    import resource

    layers, stats, workloads = _import_harness()
    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    speed = stats.Speedometer()
    totals = {"attempted": 0, "failed": 0}
    errors: List[str] = []
    span = layers.no_span

    def play(state: Any) -> Tuple[float, Any]:
        tally = workloads.Tally()
        latency = workload.run_round(state, tally, span)
        totals["attempted"] += tally.attempted
        totals["failed"] += tally.failed
        if tally.first_error is not None and not errors:
            errors.append(tally.first_error)
        return latency, tally

    for _ in range(3):
        speed.sample()
    # The first set-up and round of a process pay imports and first-use
    # paths: they warm the process up and are not samples.
    state = workload.setup()
    play(state)
    setups: List[Tuple[float, float]] = []
    colds: List[Tuple[float, float]] = []
    for _ in range(spec["cold_setups"]):
        workload.close(state)
        gc.collect()  # every cold sample starts from the same collector state
        speed.maybe_sample()
        start = time.perf_counter()
        state = workload.setup()
        setups.append((start, time.perf_counter() - start))
        start = time.perf_counter()
        colds.append((start, play(state)[0]))
    while sum(seconds for _, seconds in setups) < spec["setup_seconds"] and len(setups) < MAX_SETUPS:
        speed.maybe_sample()
        start = time.perf_counter()
        extra = workload.setup()
        setups.append((start, time.perf_counter() - start))
        workload.close(extra)

    recorder = restore = None
    missing: List[str] = []
    if spec["traced"]:
        recorder = layers.SpanRecorder()
        restore, missing = layers.install(recorder)
        span = recorder.span
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < spec["warmup"]:
            play(state)
            speed.maybe_sample()
        gc.collect()
        if recorder is not None:
            recorder.reset()
        before = _snapshot(workload.sessions(state))
        rounds: List[Tuple[float, float]] = []
        client_seconds = 0.0
        requests = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if spec["rounds"] is not None:
                if len(rounds) >= spec["rounds"]:
                    break
            elif elapsed >= spec["seconds"] and len(rounds) >= spec["min_rounds"]:
                break
            elif elapsed >= MAX_STRETCH * spec["seconds"]:
                break
            if recorder is not None:
                recorder.round = len(rounds)
            at = time.perf_counter()
            latency, tally = play(state)
            rounds.append((at, latency))
            client_seconds += tally.seconds
            requests += tally.attempted
            speed.maybe_sample()
        speed.sample()
        after = _snapshot(workload.sessions(state))
    finally:
        if restore is not None:
            restore()
        workload.close(state)

    def scaled(samples: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
        return [(at, seconds * speed.factor(at)) for at, seconds in samples]

    metrics = _timing_metrics(stats, scaled(rounds), scaled(setups), scaled(colds), requests)
    metrics["fail_frac"] = totals["failed"] / totals["attempted"]
    metrics["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        1024 * 1024 if sys.platform == "darwin" else 1024
    )
    result: Dict[str, Any] = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": spec["traced"],
        "rounds": len(rounds),
        "requests": requests,
        "setups": len(setups),
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "first_error": errors[0] if errors else None,
        "metrics": metrics,
        "raw_metrics": _timing_metrics(stats, rounds, setups, colds, requests),
        "calibration_ms": statistics.median(speed.seconds) * 1e3,
    }
    if recorder is not None:
        result["layers"] = _layer_metrics(layers, recorder, len(rounds), before, after,
                                          client_seconds, speed.overall())
        result["missing"] = missing
        if spec.get("spans_path"):
            recorder.write_jsonl(spec["spans_path"], SPAN_FILE_ROUNDS)
    return result


# ----------------------------------------------------------------------
# the parent: orchestrate children, report
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    pass


def run_child(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run :func:`measure` in a fresh interpreter; wait for it to end."""
    command = [sys.executable, *(f"-W{option}" for option in sys.warnoptions),
               str(Path(__file__).resolve()), "--child", json.dumps(spec)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        process = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                                 cwd=str(ROOT), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{spec['workload']}: child exceeded {timeout:.0f} s") from None
    if process.returncode != 0:
        raise ChildFailed(f"{spec['workload']}: child exited with status {process.returncode}")
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{spec['workload']}: child printed no result")
    return json.loads(lines[-1])


def untraced_spec(workload: str, seed: int, seconds: float, smoke: bool = False) -> Dict[str, Any]:
    return {
        "workload": workload, "seed": seed, "traced": False,
        "cold_setups": 1 if smoke else COLD_SETUPS,
        "setup_seconds": 0.0 if smoke else SETUP_SECONDS,
        "warmup": 0.0 if smoke else min(1.0, seconds / 10),
        "seconds": seconds, "min_rounds": MIN_ROUNDS, "rounds": 3 if smoke else None,
    }


def lite_spec(workload: str, seed: int, seconds: float, traced: bool,
              spans_path: Optional[str] = None) -> Dict[str, Any]:
    """One set-up, no cold samples: for the traced run and its baseline p50."""
    return {
        "workload": workload, "seed": seed, "traced": traced, "cold_setups": 0, "setup_seconds": 0.0,
        "warmup": min(0.5, seconds / 10), "seconds": seconds, "min_rounds": 10,
        "rounds": None, "spans_path": spans_path,
    }


def spans_path(workload: str, seed: int) -> str:
    OUT.mkdir(exist_ok=True)
    return str(OUT / f"spans-{workload}-seed{seed}.jsonl")


def traced_layers(workload: str, seed: int, seconds: float, untraced_p50: float,
                  deadline: float) -> Dict[str, Any]:
    traced = run_child(lite_spec(workload, seed, seconds, True, spans_path(workload, seed)), deadline)
    traced["layers"]["obs.trace_overhead"] = traced["metrics"]["p50_ms"] / untraced_p50
    return traced


def main_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """``--workload``: one run; the last stdout line is the result object."""
    deadline = time.monotonic() + DEADLINE
    if args.trace:
        base = run_child(lite_spec(args.workload, args.seed, args.seconds * (1 - TRACED_SHARE), False), deadline)
        traced = traced_layers(args.workload, args.seed, args.seconds * TRACED_SHARE,
                               base["metrics"]["p50_ms"], deadline)
        children = [base, traced]
        values = traced["layers"]
        wanted = benchmark["per_layer"]
        if traced["missing"]:
            print(f"missing layer names: {', '.join(traced['missing'])}", file=sys.stderr)
    else:
        children = [run_child(untraced_spec(args.workload, args.seed, args.seconds), deadline)]
        values = children[0]["metrics"]
        wanted = benchmark["end_to_end"]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    for child in children:
        if child["first_error"]:
            print(child["first_error"], file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


def machine_facts(seed: int) -> Dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
    }


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def report(record: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    metrics = record["metrics"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units["fail_frac"] = "ratio"
    cells = [f"{name}={_fmt(metrics.get(name))} {unit}" for name, unit in units.items()]
    print(f"{record['workload']:<10} seed={record['seed']} rounds={record['rounds']}  " + "  ".join(cells))
    if "layers" in record:
        layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        shown = [f"{name}={_fmt(value)} {layer_units.get(name, '')}".rstrip()
                 for name, value in record["layers"].items() if value]
        print("    layers: " + "  ".join(shown))
        print("    top self-time layers: " + ", ".join(record["top_layers"]))
        if record["missing"]:
            print("    missing: " + ", ".join(record["missing"]))


def top_layers(layer_values: Dict[str, float]) -> List[str]:
    """The two largest per-round time layers (``*_ms``, waiting excluded)."""
    timed = [(value, name) for name, value in layer_values.items()
             if name.endswith("_ms") and name != "serve.queue_wait_ms"]
    return [name for _, name in sorted(timed, reverse=True)[:2]]


def summarize(runs: List[Dict[str, Any]], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """Per workload and end-to-end metric: quartiles and spread across runs."""
    from e2e import stats

    summary: Dict[str, Any] = {}
    for record in runs:
        summary.setdefault(record["workload"], [])
        summary[record["workload"]].append(record["metrics"])
    for workload, metrics in summary.items():
        block = {}
        for name in [m["name"] for m in benchmark["end_to_end"]] + ["fail_frac"]:
            values = [run[name] for run in metrics if run.get(name) is not None]
            if values:
                q1, median, q3 = stats.quartiles(values)
                block[name] = {"n": len(values), "q1": q1, "median": median, "q3": q3,
                               "spread": stats.spread(values)}
        summary[workload] = block
    return summary


def main_all(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """All workloads, ``--repeat`` times with seeds ``seed, seed+1, ...``."""
    from e2e.workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    runs: List[Dict[str, Any]] = []
    status = 0
    for k in range(args.repeat):
        seed = args.seed + k
        for name in WORKLOADS:
            deadline = time.monotonic() + DEADLINE
            try:
                record = run_child(untraced_spec(name, seed, seconds, args.smoke), deadline)
                if not args.smoke:
                    traced = traced_layers(name, seed, seconds * TRACED_SHARE,
                                           record["metrics"]["p50_ms"], deadline)
                    record["layers"] = traced["layers"]
                    record["missing"] = traced["missing"]
                    record["traced_rounds"] = traced["rounds"]
                    record["attempted"] += traced["attempted"]
                    record["failed"] += traced["failed"]
                    record["top_layers"] = top_layers(traced["layers"])
            except ChildFailed as error:
                print(f"error: {error}", file=sys.stderr)
                status = 1
                continue
            if record["failed"]:
                status = 1
                print(record["first_error"], file=sys.stderr)
            report(record, benchmark)
            runs.append(record)
    results = {
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "traced": not args.smoke,
        "machine": machine_facts(args.seed),
        "summary": summarize(runs, benchmark),
        "runs": runs,
    }
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--workload", help="run only this workload and print one JSON result line")
    parser.add_argument("--seconds", type=float, help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--out", help="results JSON of a full run (default: benchmarks/e2e/out/results.json)")
    parser.add_argument("--repeat", type=int, default=1, help="full runs back to back, seeds seed..seed+K-1")
    parser.add_argument("--smoke", action="store_true", help="3 rounds per workload, one set-up, no traced run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(measure(json.loads(args.child))))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    _add_paths()
    try:
        if args.workload is not None:
            from e2e.workloads import WORKLOADS

            if args.workload not in WORKLOADS:
                parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
            if args.seconds is None:
                args.seconds = benchmark["run_seconds"]
            return main_one(args, benchmark)
        return main_all(args, benchmark)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
