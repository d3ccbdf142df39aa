"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf-serve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run, which prints the per-layer metrics instead (its first half is
traced, its second half is not, and the gap is reported as the tracing
overhead). The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``correct`` is false when any answer broke its error model's contract (see
``oracle.py``); ``failed`` counts those operations plus any that raised.
The program is imported from ``src/`` under the current directory, so the
script exits with an error when run anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

# (name, unit, better) of every metric; BENCHMARK.json lists the same.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("rss_peak_mib", "MiB", "lower"),
    ("index_bits_per_symbol", "bits/symbol", "lower"),
    ("interval_width_mean", "count", "lower"),
    ("qerror_mean", "ratio", "lower"),
]

_TIERS = ("hot", "cpst-sharded", "apx-sharded", "qgram", "stats")
PER_LAYER: List[Tuple[str, str, str]] = [
    ("engine.time_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.automaton_steps", "count", "lower"),
    ("engine.rank_calls", "count", "lower"),
    ("engine.bulk_calls", "count", "lower"),
    ("engine.bulk_states", "count", "higher"),
    ("engine.result_cache_hits", "count", "higher"),
    ("engine.state_cache_misses", "count", "lower"),
    ("selectivity.self_ms", "ms", "lower"),
    ("selectivity.oracle_probes", "count", "lower"),
    ("selectivity.oracle_certified_ratio", "ratio", "higher"),
    ("server.self_us", "us", "lower"),
    ("ladder.self_us", "us", "lower"),
    ("ladder.attempts_per_query", "count", "lower"),
    ("ladder.useful_ratio", "ratio", "higher"),
    *[(f"tier.{t}.served", "count", "higher" if t == "hot" else "lower")
      for t in _TIERS],
    *[(f"tier.{t}.time_ms", "ms", "lower") for t in _TIERS],
    ("hot.lookups", "count", "lower"),
    ("hot.exact_answers", "count", "higher"),
    ("hot.sketch_answers", "count", "lower"),
    ("hot.time_ms", "ms", "lower"),
    ("hot.observe_ms", "ms", "lower"),
    ("shard.fanouts", "count", "lower"),
    ("shard.self_us", "us", "lower"),
    ("live.write_us", "us", "lower"),
    ("live.reload_s", "s", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("compact.verify_ms", "ms", "lower"),
    ("compact.build_ms", "ms", "lower"),
    ("compact.verify_share", "ratio", "lower"),
    ("build.sa_ms", "ms", "lower"),
    ("build.lcp_ms", "ms", "lower"),
    ("build.bwt_ms", "ms", "lower"),
    ("build.structure_ms", "ms", "lower"),
    ("build.index_ms", "ms", "lower"),
    ("build.cache_hits", "count", "higher"),
    ("daemon.read_us", "us", "lower"),
    ("daemon.publish_ms", "ms", "lower"),
    ("daemon.flip_ms", "ms", "lower"),
    ("daemon.respawns", "count", "lower"),
    ("parallel.segment_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_op", "count", "lower"),
]

ROOT = Path.cwd()


def percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def run_phase(workload, rec, first: int, seconds: float, on_round=None) -> int:
    """Whole rounds from index ``first`` (at least one) while another round
    as long as the last still ends within ``seconds``; returns the next
    round index."""
    deadline = time.perf_counter() + seconds
    index = first
    while True:
        started = time.perf_counter()
        reads, wall, ops = len(rec.read_ns), rec.wall_ns, rec.ops
        check = workload.run_round(index, rec)
        rec.rounds += 1
        latencies = rec.read_ns[reads:]
        rec.round_stats.append((
            percentile(latencies, 0.50), percentile(latencies, 0.99),
            (rec.ops - ops) / ((rec.wall_ns - wall) / 1e9),
        ))
        if on_round is not None:
            on_round(index)
        check()
        index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return index


def end_to_end(workload, setup_s: List[float], rec, bits: float,
               rss: float) -> Dict[str, float]:
    """Timings are medians over rounds of each round's own figure, so a
    burst of interference on the host moves one round, not the result."""
    p50s, p99s, rates = zip(*rec.round_stats)
    return {
        "setup_s": statistics.median(setup_s),
        "query_p50_us": statistics.median(p50s) / 1e3,
        "query_p99_us": statistics.median(p99s) / 1e3,
        "ops_per_s": statistics.median(rates),
        "rss_peak_mib": rss,
        "index_bits_per_symbol": bits,
        "interval_width_mean": workload.quality["interval_width_mean"],
        "qerror_mean": workload.quality["qerror_mean"],
    }


def per_layer(workload, tracer, first_round: Dict[str, float], traced,
              untraced) -> Dict[str, float]:
    """Per-layer metrics of the traced phase.

    Counters are those of the first traced round (identical work in every
    run of a seed); ``*_ms`` times are per round and ``*_us`` times per
    call, averaged over the traced phase.
    """
    spans = tracer.summary()
    rounds = max(1, traced.rounds)

    def ms_per_round(name: str, key: str = "time_ns") -> float:
        return spans.get(name, {}).get(key, 0) / rounds / 1e6

    def us_per_call(name: str, key: str = "time_ns") -> float:
        entry = spans.get(name)
        return entry[key] / entry["calls"] / 1e3 if entry else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms_per_compaction(name: str) -> float:
        return ratio(spans.get(name, {}).get("time_ns", 0),
                     spans.get("compact", {}).get("calls", 0)) / 1e6

    c = first_round.get
    out: Dict[str, float] = {
        "engine.time_ms": ms_per_round("engine"),
        "engine.self_ms": ms_per_round("engine", "self_ns"),
        "selectivity.self_ms": ms_per_round("selectivity", "self_ns"),
        "selectivity.oracle_probes": c("selectivity.oracle_probes", 0),
        "selectivity.oracle_certified_ratio": ratio(
            c("selectivity.oracle_certified", 0),
            c("selectivity.oracle_probes", 0)),
        "server.self_us": us_per_call("server", "self_ns"),
        "ladder.self_us": us_per_call("ladder", "self_ns"),
        "ladder.attempts_per_query": ratio(c("ladder.attempts", 0),
                                           c("ladder.queries", 0)),
        "ladder.useful_ratio": ratio(c("ladder.queries", 0),
                                     c("ladder.attempts", 0)),
        "hot.time_ms": ms_per_round("hot"),
        "hot.observe_ms": ms_per_round("hot.observe"),
        "shard.fanouts": c("shard.fanouts", 0),
        "shard.self_us": us_per_call("shard", "self_ns"),
        "live.write_us": us_per_call("live.write"),
        "live.reload_s": us_per_call("reload") / 1e6,
        "wal.bytes_per_user_byte": ratio(c("wal.bytes", 0),
                                         c("wal.user_bytes", 0)),
        "compact.verify_ms": ms_per_compaction("compact.verify"),
        "compact.build_ms": ms_per_compaction("compact.build"),
        "compact.verify_share": ratio(
            spans.get("compact.verify", {}).get("time_ns", 0),
            spans.get("compact", {}).get("time_ns", 0)),
        "daemon.read_us": us_per_call("daemon.read"),
        "daemon.publish_ms": us_per_call("daemon.publish") / 1e3,
        "daemon.flip_ms": us_per_call("reload", "self_ns") / 1e3,
        "parallel.segment_bytes": c("parallel.segment_bytes", 0),
        "trace.overhead_pct": (
            ratio(untraced.ops / untraced.wall_ns, traced.ops / traced.wall_ns)
            - 1.0) * 100.0,
        "trace.spans_per_op": ratio(len(tracer.spans), traced.ops),
    }
    for name in ("automaton_steps", "rank_calls", "bulk_calls", "bulk_states",
                 "result_cache_hits", "state_cache_misses"):
        out[f"engine.{name}"] = c(f"engine.{name}", 0)
    for tier in _TIERS:
        out[f"tier.{tier}.served"] = c(f"tier.{tier}.served", 0)
        out[f"tier.{tier}.time_ms"] = ms_per_round(f"tier.{tier}")
    for name in ("lookups", "exact_answers", "sketch_answers"):
        out[f"hot.{name}"] = c(f"hot.{name}", 0)
    out.update(build_stages(workload.setup_builds))
    out["daemon.respawns"] = 0
    out.update(workload.layer_state())
    return out


def build_stages(setups) -> Dict[str, float]:
    """Milliseconds per stage kind and artifact cache hits, per set-up."""
    totals = {"sa": 0.0, "lcp": 0.0, "bwt": 0.0, "structure": 0.0,
              "index": 0.0}
    hits = 0
    for reports in setups:
        for report in reports:
            hits += report.reuse_hits
            for record in report.stages:
                kind = record.stage.split("(")[0].split(":")[0]
                if kind in totals:
                    totals[kind] += record.seconds
    n = max(1, len(setups))
    out = {f"build.{k}_ms": v * 1e3 / n for k, v in totals.items()}
    out["build.cache_hits"] = hits / n
    return out


def peak_rss_mib(pids: List[int]) -> float:
    """VmHWM of this process plus ``pids``, read from /proc."""
    total_kib = 0
    for pid in ["self"] + [str(p) for p in pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


def environment() -> Dict[str, object]:
    import platform
    import subprocess

    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_digest": source_digest(ROOT / "src"),
    }


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (stands in for the commit
    where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker process multiprocessing
    starts on first use, and wait for it, once every segment is gone."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program iterates sets of strings in places (compaction's probe
    # set, for one), so its work counters depend on the string hash seed.
    # Tie that to --seed so a seed always does identical work; spawned
    # daemon workers inherit it.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl_mod
    from spans import Tracer

    if args.workload not in wl_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {sorted(wl_mod.WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    workload = wl_mod.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        restore_builds = wl_mod.build_capture(workload) if tracer else None
        setup_s: List[float] = []
        for i in range(workload.setups):
            if i:
                workload.close()
            gc.collect()
            workload.setup_builds.append([])
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        if restore_builds is not None:
            restore_builds()
        bits = workload.index_bits_per_symbol()

        warmup = wl_mod.Recorder()
        run_phase(workload, warmup, 0, 0.0)
        gc.collect()
        if tracer is None:
            rec = wl_mod.Recorder()
            run_phase(workload, rec, 1, args.seconds)
            phases = [warmup, rec]
        else:
            first_round: Dict[str, float] = {}

            def snapshot(index: int) -> None:
                if index == 1:
                    first_round.update(tracer.counters)
                    first_round.update(workload.round_counters)
                    first_round["spans"] = len(tracer.spans)

            workload.trace_points(tracer)
            tracer.bind_client()
            traced = wl_mod.Recorder()
            try:
                nxt = run_phase(workload, traced, 1, args.seconds / 2, snapshot)
            finally:
                tracer.restore()
            untraced = wl_mod.Recorder()
            run_phase(workload, untraced, nxt, args.seconds / 2)
            phases = [warmup, traced, untraced]
        rss = peak_rss_mib(workload.worker_pids())
        if tracer is None:
            metrics = end_to_end(workload, setup_s, rec, bits, rss)
            names = END_TO_END
        else:
            metrics = per_layer(workload, tracer, first_round, traced, untraced)
            names = PER_LAYER
            spans_dir = ROOT / ".perfbench-spans"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file, first_round["spans"])
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    violations = sum(p.violations for p in phases)
    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, rounds=sum(p.rounds for p in phases),
               attempted=attempted, failed=failed)
    print("environment: " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        print("spans of the first traced round: "
              f"{spans_file.relative_to(ROOT)}")
    for phase in phases:
        for failure in phase.failures:
            print(f"FAILED: {failure}")
    for name, unit, _ in names:
        print(f"  {name:<36} {metrics[name]:>14.4f} {unit}")
    if tracer is None and rec.write_ns:
        print(f"  {'write_p50_us':<36} "
              f"{percentile(rec.write_ns, 0.5) / 1e3:>14.4f} us")
        print(f"  {'reload_s':<36} "
              f"{statistics.median(rec.reload_ns) / 1e9:>14.4f} s")
    result = {
        "correct": violations == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
