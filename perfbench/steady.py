"""Steadiness check: two alternating sets of runs of every workload.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 5 [--workloads zipf-serve ...]
                                [--seconds N] [--trace 0]

Run ``i`` of each set uses seed ``i + 1``; the two sets take turns
going first. For every metric the report gives each set's median and
quartiles, the spread (interquartile distance over the median) and whether
the two sets agree: the second median is not worse than the first by more
than the metric's bound from ``BENCHMARK.json``, and each spread stays
within the bound (``setup_s`` is exempt from the spread test). Metrics that
are a pure function of the seed must be identical in both sets, seed by
seed. Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent

# End-to-end metrics that depend on the seed alone.
EXACT_E2E = {"index_bits_per_symbol", "interval_width_mean", "qerror_mean"}
# Per-layer metrics derived from timings (everything else is a count).
TIMED_SUFFIXES = ("_ms", "_us", "_s", "_pct")
TIMED = {"compact.verify_share", "trace.spans_per_op"}


def is_exact(name: str, trace: int) -> bool:
    if not trace:
        return name in EXACT_E2E
    return not name.endswith(TIMED_SUFFIXES) and name not in TIMED


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads:
        sets: List[List[dict]] = [[], []]
        for i in range(args.runs):
            seed = i + 1
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for which in order:
                sets[which].append(run_once(workload, seed, args.seconds,
                                            args.trace))
        print(f"== {workload}: {args.runs} runs per set, seeds 1..{args.runs}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"   failed share {shares[0]:.6f} / {shares[1]:.6f}, "
              f"correct {correct}")
        ok &= correct and shares[0] == shares[1]
        for name in sets[0][0]["metrics"]:
            series = [[r["metrics"][name]["value"] for r in s] for s in sets]
            unit = sets[0][0]["metrics"][name]["unit"]
            stats = [quartiles(v) for v in series]
            spreads = [(q3 - q1) / q2 if q2 else 0.0 for q1, q2, q3 in stats]
            line = (f"   {name:<34} {unit:<11} "
                    + "  ".join(f"med {q2:.4g} [{q1:.4g}, {q3:.4g}] "
                                f"spread {sp:.3f}"
                                for (q1, q2, q3), sp in zip(stats, spreads)))
            if is_exact(name, args.trace):
                same = series[0] == series[1]
                line += "  exact " + ("yes" if same else "NO")
                ok &= same
            elif name in bounds:
                bound = bounds[name]["bound"]
                lower = bounds[name]["better"] == "lower"
                first, second = stats[0][1], stats[1][1]
                worse = (second - first) / first if lower else \
                    (first - second) / first
                fine = worse <= bound and (
                    name == "setup_s" or max(spreads) <= bound)
                line += (f"  worse {worse:+.3f} bound {bound} "
                         + ("ok" if fine else "OUT"))
                ok &= fine
            print(line)
    print("steady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
