"""The three workloads: set-up, one round of operations, answer checks.

A *round* is a fixed list of operations, the same list in every run of a
seed, and every run attempts whole rounds. Each workload resets the
program's caches between rounds (fresh estimator, fresh tier memos and hot
store, or a new daemon generation), so round ``i`` does the same work in a
10-second run as in a 60-second one.

Round 0 is the warm-up round: it is checked and counted like any other,
but not timed. The deterministic quality metrics (``interval_width_mean``,
``qerror_mean``) come from it, so they repeat exactly for a seed.

Answers are stored during the timed loop and checked afterwards against
:mod:`oracle`, outside the clock.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
import oracle

# Corpus threshold l for every index; shards are built at the split-budget
# threshold max(2, 1 + (l - 1) // k).
L = 32
SHARDS = 2


class Recorder:
    """Latencies, operation counts and failures of one phase."""

    def __init__(self) -> None:
        self.read_ns: List[int] = []
        self.write_ns: List[int] = []
        self.reload_ns: List[int] = []
        self.wall_ns = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.rounds = 0
        #: (p50 ns, p99 ns, ops per second) of each round
        self.round_stats: List[Tuple[float, float, float]] = []

        #: failed operations whose answer broke its contract (the rest
        #: of ``failed`` raised instead of answering)
        self.violations = 0

    def fail(self, what: str, violation: bool = True) -> None:
        self.failed += 1
        self.violations += int(violation)
        if len(self.failures) < 5:
            self.failures.append(what)


class Workload:
    """Interface every workload implements."""

    name = ""
    setups = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: deterministic quality metrics, filled by the round-0 check
        self.quality: Dict[str, float] = {}
        #: per-round counters for the traced run, filled by each round
        self.round_counters: Dict[str, float] = {}
        #: BuildReports of the builds each set-up ran
        self.setup_builds: List[List[Any]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built (processes, files)."""

    def run_round(self, index: int, rec: Recorder) -> Callable[[], None]:
        """Run round ``index`` and return its (untimed) answer check."""
        raise NotImplementedError

    def index_bits_per_symbol(self) -> float:
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        return []

    def trace_points(self, tracer) -> None:
        """Install the spans and counters of this workload's layers."""

    def layer_state(self) -> Dict[str, float]:
        """Counters read from the program after the traced rounds."""
        return {}


def _model_name(model: Any) -> str:
    return getattr(model, "value", str(model))


def per_pattern_mean(values: Dict[Any, List[float]]) -> float:
    """Mean over distinct patterns of each pattern's mean value.

    On a skewed log a plain mean over queries is dominated by whichever
    pattern the seed makes most popular (a fifth of a Zipf(1.1) log);
    weighting patterns equally keeps the figure comparable across seeds.
    """
    means = [sum(v) / len(v) for v in values.values()]
    return sum(means) / len(means)


# ---------------------------------------------------------------------------
# mol-selectivity


class MolSelectivity(Workload):
    """LIKE '%P%' selectivity estimates with MOL over CPST_l (paper Fig. 9).

    60k-symbol text; 2850 distinct predicates of length 5..12 sampled from
    it, mostly rare (true count below l). A round builds a fresh
    ``MOLEstimator`` (the optimiser session) and estimates every predicate
    once.
    """

    name = "mol-selectivity"
    setups = 5
    TEXT_SYMBOLS = 60_000
    PATTERNS = 2850

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        docs = inputs.documents(seed, self.TEXT_SYMBOLS, stream="mol")
        self.text = " ".join(body for _, body in docs)
        rng = inputs.rng_for(seed, "mol-patterns")
        self.patterns = inputs.sample_substrings(
            rng, self.text, self.PATTERNS, list(range(5, 13))
        )
        self.truth = [oracle.naive_count(self.text, p) for p in self.patterns]
        self.cpst = None
        #: the index's own certified counts (fixed once it is built)
        self.certified: List[Optional[int]] = []

    def setup(self) -> None:
        from repro import BuildContext, build_all
        from repro.build.pipeline import spec_for

        spec = spec_for("cpst", L)
        result = build_all(BuildContext(self.text), [spec])
        self.cpst = result[spec.label]
        self.setup_builds[-1].append(result.report)

    def index_bits_per_symbol(self) -> float:
        return self.cpst.space_report().payload_bits / len(self.text)

    def run_round(self, index: int, rec: Recorder) -> Callable[[], None]:
        from repro import MOLEstimator

        estimator = MOLEstimator(self.cpst)
        estimates: List[float] = []
        lat = rec.read_ns
        started = time.perf_counter_ns()
        errors: List[str] = []
        for pattern in self.patterns:
            t0 = time.perf_counter_ns()
            try:
                estimates.append(estimator.estimate(pattern))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                estimates.append(None)
                errors.append(f"{pattern!r}: {type(exc).__name__}: {exc}")
                continue
            lat.append(time.perf_counter_ns() - t0)
        rec.wall_ns += time.perf_counter_ns() - started
        rec.ops += len(self.patterns)
        rec.attempted += len(self.patterns)

        def check() -> None:
            for problem in errors:
                rec.fail(problem, violation=False)
            if not self.certified:
                self.certified = [self.cpst.count_or_none(p)
                                  for p in self.patterns]
                for pattern, certified, truth in zip(
                    self.patterns, self.certified, self.truth
                ):
                    problem = oracle.check_certified(certified, L, truth)
                    if problem:
                        rec.fail(f"index on {pattern!r}: {problem}")
            widths, qerrors = [], []
            for pattern, estimate, certified, truth in zip(
                self.patterns, estimates, self.certified, self.truth
            ):
                if estimate is None:
                    continue
                problem = oracle.check_estimate(estimate, certified, truth)
                if problem:
                    rec.fail(f"{pattern!r}: {problem}")
                widths.append(1 if certified is not None else L)
                qerrors.append(oracle.qerror(estimate, truth))
            if index == 0:
                self.quality = {
                    "interval_width_mean": sum(widths) / len(widths),
                    "qerror_mean": sum(qerrors) / len(qerrors),
                }

        return check

    def trace_points(self, tracer) -> None:
        from repro import MOLEstimator
        from repro.selectivity.base import CountOracle

        tracer.wrap(MOLEstimator, "estimate", "selectivity")

        def probed(args, kwargs, result):
            tracer.count("selectivity.oracle_probes")
            if result is not None:
                tracer.count("selectivity.oracle_certified")

        tracer.wrap_counter(CountOracle, "known", probed)
        wrap_engine(tracer)


# ---------------------------------------------------------------------------
# zipf-serve


class ZipfServe(Workload):
    """Skewed reads through QueryServer -> hot rung -> sharded ladder (k=2).

    40k symbols in ~130 documents, 2 shards. A round is four sessions;
    each session draws its own universe of 500 in-text patterns (length
    3..12) and a log of 2500 queries from it under Zipf(1.1), and is served
    by a fresh front with empty tier memos and a fresh hot store. So a
    session's first sight of a pattern is a cold fan-out (about a fifth of
    its log) and the repeats are absorbed by the hot rung or the memo.
    """

    name = "zipf-serve"
    setups = 5
    CORPUS_SYMBOLS = 40_000
    SESSIONS = 4
    UNIVERSE = 500
    LOG = 2500
    ZIPF_S = 1.1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.docs = inputs.documents(seed, self.CORPUS_SYMBOLS, stream="zipf")
        bodies = [body for _, body in self.docs]
        text = "\n".join(bodies)
        self.sessions: List[Tuple[List[str], List[int]]] = []
        for session in range(self.SESSIONS):
            rng = inputs.rng_for(seed, f"zipf-log-{session}")
            universe = inputs.sample_substrings(rng, text, self.UNIVERSE,
                                                list(range(3, 13)))
            log = inputs.zipf_log(rng, universe, self.LOG, self.ZIPF_S)
            truths = {p: oracle.corpus_count(bodies, p) for p in universe}
            self.sessions.append((log, [truths[p] for p in log]))
        self.symbols = sum(len(b) for b in bodies)
        self.ladder = None

    def setup(self) -> None:
        from repro import ShardPlan, build_sharded_ladder

        plan = ShardPlan.for_documents(self.docs, SHARDS)
        # No deadline: a time-dependent fall-through would make answers
        # (and the widths the benchmark reports) vary from run to run.
        self.ladder = build_sharded_ladder(
            plan, L, deadline_seconds=None, max_workers=SHARDS
        )

    def index_bits_per_symbol(self) -> float:
        from repro.hot import HotPatternTier, with_hot_tier

        service, _ = with_hot_tier(
            self.ladder, HotPatternTier.from_documents(self.docs)
        )
        bits = sum(
            tier.estimator.space_report().payload_bits for tier in service.tiers
        )
        return bits / self.symbols

    def _fresh_server(self):
        """Empty every tier memo and shard memo; new hot store and front."""
        from repro.hot import HotPatternTier, with_hot_tier
        from repro.service.server import QueryServer

        for tier in self.ladder.tiers:
            tier.replace_estimator(tier.estimator)
            estimator = tier.estimator
            if hasattr(estimator, "replace_shard"):
                for name in estimator.shard_names:
                    estimator.replace_shard(name, estimator.estimator_for(name))
        hot = HotPatternTier.from_documents(self.docs)
        service, _ = with_hot_tier(self.ladder, hot)
        return QueryServer(service), hot

    def run_round(self, index: int, rec: Recorder) -> Callable[[], None]:
        outcomes: List[List[Any]] = []
        counters = dict.fromkeys(
            ("hot.lookups", "hot.exact_answers", "hot.sketch_answers"), 0)
        lat = rec.read_ns
        for log, _ in self.sessions:
            server, hot = self._fresh_server()
            answers: List[Any] = []
            outcomes.append(answers)
            try:
                started = time.perf_counter_ns()
                for pattern in log:
                    t0 = time.perf_counter_ns()
                    try:
                        answers.append(server.query(pattern))
                    except Exception as exc:  # noqa: BLE001 - a failure
                        answers.append(exc)
                        continue
                    lat.append(time.perf_counter_ns() - t0)
                rec.wall_ns += time.perf_counter_ns() - started
            finally:
                server.close()
            rec.ops += len(log)
            rec.attempted += len(log)
            counters["hot.lookups"] += hot.stats.lookups
            counters["hot.exact_answers"] += hot.stats.exact_hits
            counters["hot.sketch_answers"] += hot.stats.sketch_hits
        self.round_counters = counters

        def check() -> None:
            widths: Dict[Tuple[int, str], List[int]] = {}
            qerrors: Dict[Tuple[int, str], List[float]] = {}
            for session, ((log, truths), answers) in enumerate(
                zip(self.sessions, outcomes)
            ):
                for pattern, outcome, truth in zip(log, answers, truths):
                    key = (session, pattern)
                    problem = self._check(outcome, truth)
                    if isinstance(problem, tuple):
                        lo, hi = problem
                        widths.setdefault(key, []).append(oracle.width(lo, hi))
                        qerrors.setdefault(key, []).append(
                            oracle.qerror(outcome.count, truth))
                    else:
                        rec.fail(f"{pattern!r}: {problem}",
                                 violation=not isinstance(outcome, Exception))
            if index == 0:
                self.quality = {
                    "interval_width_mean": per_pattern_mean(widths),
                    "qerror_mean": per_pattern_mean(qerrors),
                }

        return check

    @staticmethod
    def _check(outcome: Any, truth: int) -> "Tuple[int, int] | str":
        """The admitted ``(lo, hi)`` of a sound answer, else the problem."""
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"
        model = _model_name(outcome.error_model)
        count, threshold = int(outcome.count), int(outcome.threshold)
        problem = oracle.check_model(
            model, count, threshold, truth,
            reliable=bool(getattr(outcome, "reliable", False)),
        )
        lo, hi = oracle.interval(model, count, threshold)
        if getattr(outcome, "count_interval", None) is not None:
            lo, hi = outcome.count_interval
            problem = problem or oracle.check_interval(lo, hi, truth)
        if problem:
            return f"via {outcome.tier}: {problem}"
        return lo, hi

    def trace_points(self, tracer) -> None:
        from repro.hot import HotPatternTier
        from repro.hot.rung import HotTierRung
        from repro.service.resilient import ResilientEstimator
        from repro.service.server import QueryServer
        from repro.service.tiers import Tier
        from repro.shard import ShardedEstimator

        def served(token, args, kwargs, outcome):
            tracer.count("ladder.queries")
            tracer.count("ladder.attempts", int(outcome.attempts))
            tracer.count(f"tier.{outcome.tier}.served")

        def fanned(token, args, kwargs, result):
            tracer.count("shard.fanouts")

        tracer.wrap(QueryServer, "query", "server")
        tracer.wrap(ResilientEstimator, "query", "ladder", after=served)
        tier_name = lambda tier: f"tier.{tier.name}"  # noqa: E731
        tracer.wrap(Tier, "answer", tier_name)
        tracer.wrap(HotTierRung, "answer", tier_name)
        tracer.wrap(HotPatternTier, "lookup", "hot")
        tracer.wrap(HotPatternTier, "observe", "hot.observe")
        tracer.wrap(ShardedEstimator, "merged_count", "shard", after=fanned)
        wrap_engine(tracer)


# ---------------------------------------------------------------------------
# live-daemon-rw


class LiveDaemonRW(Workload):
    """Reads beside acknowledged writes through the crash-only daemon.

    A 16k-symbol live corpus (2 shards, so 2 worker processes). A round is
    1000 reads of distinct patterns sampled from the serving snapshot, with
    24 appends and 24 deletes interleaved (WAL fsync before each ack), then
    one compacting reload. Reads answer from the generation frozen at the
    last reload, so the benchmark's own document map, snapshotted at each
    reload, supplies the true counts.
    """

    name = "live-daemon-rw"
    CORPUS_SYMBOLS = 16_000
    READS = 1000
    APPENDS = 24
    DELETES = 24

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.base_docs = inputs.documents(seed, self.CORPUS_SYMBOLS,
                                          stream="live")
        self.corpus = None
        self.supervisor = None
        self.directory: Optional[Path] = None
        self._setups = 0

    def setup(self) -> None:
        from repro import LiveCorpus
        from repro.daemon import Supervisor

        self._setups += 1
        self.directory = self.workdir / f"live-{self._setups}"
        shutil.rmtree(self.directory, ignore_errors=True)
        corpus = LiveCorpus.create(self.directory, l=L, shards=SHARDS)
        self.corpus = corpus
        for name, body in self.base_docs:
            corpus.append(name, body)
        corpus.compact()
        supervisor = Supervisor(corpus)
        self.supervisor = supervisor
        supervisor.start()
        self.mirror: Dict[str, str] = dict(self.base_docs)
        self.snapshot: Dict[str, str] = dict(self.mirror)

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
            self.supervisor = None
        if self.corpus is not None:
            self.corpus.close()
            self.corpus = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    def index_bits_per_symbol(self) -> float:
        symbols = sum(len(body) for body in self.snapshot.values())
        return self.corpus.sharded.space_report().payload_bits / symbols

    def worker_pids(self) -> List[int]:
        pids = []
        for i in range(SHARDS):
            pid = self.supervisor.worker_pid(i)
            if pid is not None:
                pids.append(pid)
        return pids

    def _round_ops(self, index: int) -> List[Tuple[str, str, str]]:
        rng = inputs.rng_for(self.seed, f"live-round-{index}")
        text = "\n".join(self.snapshot[name] for name in sorted(self.snapshot))
        reads = inputs.sample_substrings(rng, text, self.READS,
                                         list(range(3, 13)))
        appends = inputs.documents(
            self.seed, stream=f"live-r{index}", count=self.APPENDS
        )
        victims = rng.sample(sorted(self.mirror), self.DELETES)
        writes: List[Tuple[str, str, str]] = []
        for j in range(self.APPENDS):
            name, body = appends[j]
            writes.append(("append", f"r{index}-{j}-{name}", body))
        for name in victims:
            writes.append(("delete", name, ""))
        rng.shuffle(writes)
        ops: List[Tuple[str, str, str]] = [("read", p, "") for p in reads]
        # Spread the writes evenly through the reads.
        step = len(ops) // (len(writes) + 1)
        for j, write in enumerate(writes):
            ops.insert((j + 1) * step + j, write)
        return ops

    def run_round(self, index: int, rec: Recorder) -> Callable[[], None]:
        sup, corpus = self.supervisor, self.corpus
        ops = self._round_ops(index)
        serving = sup.generation.number
        wal = self.directory / "wal.log"
        wal_before = wal.stat().st_size
        user_bytes = 0
        answers: List[Tuple[str, Any]] = []
        errors: List[str] = []
        started = time.perf_counter_ns()
        for kind, name, body in ops:
            t0 = time.perf_counter_ns()
            try:
                if kind == "read":
                    answers.append((name, sup.merged_count(name)))
                elif kind == "append":
                    corpus.append(name, body)
                else:
                    corpus.delete(name)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                errors.append(f"{kind} {name!r}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter_ns() - t0
            if kind == "read":
                rec.read_ns.append(elapsed)
            else:
                rec.write_ns.append(elapsed)
                user_bytes += len(name) + len(body)
                if kind == "append":
                    self.mirror[name] = body
                else:
                    del self.mirror[name]
        wal_after = wal.stat().st_size
        t0 = time.perf_counter_ns()
        try:
            generation = sup.reload(compact=True).number
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            generation = None
            errors.append(f"reload: {type(exc).__name__}: {exc}")
        rec.reload_ns.append(time.perf_counter_ns() - t0)
        rec.wall_ns += time.perf_counter_ns() - started
        rec.ops += len(ops) + 1
        rec.attempted += len(ops) + 1
        snapshot, expected = self.snapshot, dict(self.mirror)
        self.snapshot = expected
        self.round_counters = {
            "wal.bytes": wal_after - wal_before,
            "wal.user_bytes": user_bytes,
            "parallel.segment_bytes": sum(
                ref.nbytes for ref in sup.generation.segments
            ),
        }

        def check() -> None:
            for problem in errors:
                rec.fail(problem, violation=False)
            if generation is not None:
                if generation <= serving:
                    rec.fail(f"reload kept generation {serving}")
                elif set(corpus.documents()) != set(expected):
                    rec.fail("live document set differs from the model")
            bodies = list(snapshot.values())
            widths, qerrors = [], []
            for pattern, answer in answers:
                truth = oracle.corpus_count(bodies, pattern)
                model = _model_name(answer.error_model)
                problem = (
                    oracle.check_interval(answer.lo, answer.hi, truth)
                    or oracle.check_model(
                        model, answer.hi, answer.threshold, truth
                    )
                    or (None if answer.generation == serving else
                        f"served by generation {answer.generation}, "
                        f"expected {serving}")
                )
                if problem:
                    rec.fail(f"{pattern!r}: {problem}")
                widths.append(oracle.width(answer.lo, answer.hi))
                qerrors.append(oracle.qerror(answer.hi, truth))
            if index == 0:
                self.quality = {
                    "interval_width_mean": sum(widths) / len(widths),
                    "qerror_mean": sum(qerrors) / len(qerrors),
                }

        return check

    def trace_points(self, tracer) -> None:
        import repro.live.compactor as compactor
        from repro import LiveCorpus
        from repro.daemon import GenerationPublisher, Supervisor
        from repro.shard import ShardedEstimator

        tracer.wrap(Supervisor, "merged_count", "daemon.read")
        tracer.wrap(LiveCorpus, "append", "live.write")
        tracer.wrap(LiveCorpus, "delete", "live.write")
        tracer.wrap(Supervisor, "reload", "reload")
        tracer.wrap(LiveCorpus, "compact", "compact")
        tracer.wrap(ShardedEstimator, "verify_shard", "compact.verify")
        tracer.wrap(compactor, "build_sharded", "compact.build")
        tracer.wrap(GenerationPublisher, "publish", "daemon.publish")
        wrap_engine(tracer)

    def layer_state(self) -> Dict[str, float]:
        return {"daemon.respawns": self.supervisor.stats["respawns"]}


# ---------------------------------------------------------------------------
# shared trace points

_ENGINE_COUNTERS = (
    "automaton_steps", "rank_calls", "bulk_calls", "bulk_states",
    "result_cache_hits", "state_cache_misses",
)


def wrap_engine(tracer) -> None:
    """Engine spans plus per-call work-counter deltas on every planner."""
    from repro.engine import TrieBatchPlanner

    def before(args, kwargs):
        stats = args[0].stats
        return [getattr(stats, name) for name in _ENGINE_COUNTERS]

    def after(token, args, kwargs, result):
        stats = args[0].stats
        for name, was in zip(_ENGINE_COUNTERS, token):
            delta = getattr(stats, name) - was
            if delta:
                tracer.count("engine." + name, delta)

    for method in ("count", "count_many", "count_or_none", "count_or_none_many"):
        tracer.wrap(TrieBatchPlanner, method, "engine", before=before,
                    after=after)


def build_capture(workload: Workload):
    """Collect the BuildReport of every shard build a set-up runs (the
    sharded ladder and compaction build through ``repro.shard.build``)."""
    import repro.shard.build as shard_build

    original = shard_build.build_all

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        workload.setup_builds[-1].append(result.report)
        return result

    shard_build.build_all = capture
    return lambda: setattr(shard_build, "build_all", original)


WORKLOADS = {
    cls.name: cls for cls in (MolSelectivity, ZipfServe, LiveDaemonRW)
}
