"""The four benchmark workloads and their output checks.

Every workload is a closed loop with one client: a pass (one ``runner
all``-equivalent analysis, one sweep, or one search per pinned seed)
starts only after the previous one finished, and inside a pass each experiment, cell or
candidate runs after the one before it.  Everything runs in this
process with ``jobs=1``.

A workload has a *setup* (repeated), a *prime* (once) and a *pass* that
returns a :class:`PassResult`.  The pass times only the work
a user of the CLI waits for -- analysis or sweep or search, plus
rendering the tables -- then checks its outputs outside the timed
region: digests of the rendered tables against ``digests.json`` beside
this file, sweep-cell and candidate statuses, and simulated-statistic
invariants.  Each check is one attempted operation.
"""

import hashlib
import json
import os
import shutil
import signal
import statistics
import time

#: The sensitivity grid of ``sweep-grid``: spawn cost x TU count x the
#: three summary policies over the 18 analogs (96 cells per analog).
SWEEP_SPAWN_COSTS = (0, 1, 2, 4, 8, 16, 32, 64)
SWEEP_TUS = (2, 4, 8, 16)

#: The ``search`` workload: serial tpc-inversion hill climbs, one per
#: seed, every pass.  The seeds are fixed (1 is ``runner search``'s
#: default): a climb's cost depends on the programs its trajectory
#: generates, so every run walks the same pinned trajectories.
SEARCH_OBJECTIVE = "tpc-inversion"
SEARCH_SEEDS = (1, 2, 3, 4)
SEARCH_BUDGET = 30

#: Seconds :func:`reference_loop` takes on the nominal host (a quiet
#: 2-core x86-64 VM, CPython 3.11); end-to-end times are scaled to it.
REFERENCE_S = 0.0025

#: Seconds between host-speed samples (see :meth:`Run.sampling_start`).
SAMPLE_EVERY = 0.05

clock = time.perf_counter


def reference_loop():
    """A fixed pure-Python workload -- integer arithmetic and dict
    stores, like the simulator's inner loops -- whose time tracks how
    fast the shared host runs this process at the moment."""
    table = {}
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = i
    return acc


def host_scale(ref_times):
    """Factor turning host seconds measured while the reference loop
    took *ref_times* into seconds on the nominal host.

    The mean, not the median: the host flips between a fast and a slow
    state, and a pass's time follows the share of it spent slow."""
    return REFERENCE_S / statistics.fmean(ref_times)


class Settings:
    """Input sizes.  The defaults are the benchmark; anything smaller is
    a smoke run, whose digests are only checked for self-consistency."""

    def __init__(self, analogs=None, max_instructions=None,
                 spawn_costs=SWEEP_SPAWN_COSTS, tus=SWEEP_TUS,
                 search_budget=SEARCH_BUDGET):
        self.analogs = analogs
        self.max_instructions = max_instructions
        self.spawn_costs = tuple(spawn_costs)
        self.tus = tuple(tus)
        self.search_budget = search_budget

    @property
    def pinned(self):
        """Whether these are the sizes ``digests.json`` pins."""
        return (self.analogs is None and self.max_instructions is None
                and self.spawn_costs == SWEEP_SPAWN_COSTS
                and self.tus == SWEEP_TUS
                and self.search_budget == SEARCH_BUDGET)

    def workload_names(self):
        from repro.workloads import SUITE_ORDER
        return tuple(self.analogs or SUITE_ORDER)


class PassResult:
    """One timed pass: wall time, the completion times of its programs
    (analogs or candidates), simulated instructions, and checks."""

    def __init__(self, start, end, marks, instructions, attempted,
                 failed, table1=None):
        self.start = start
        self.end = end
        self.marks = marks
        self.instructions = instructions
        self.attempted = attempted
        self.failed = failed
        self.table1 = table1

    @property
    def wall(self):
        return self.end - self.start

    def gaps(self):
        """Seconds per program: the gaps between completions, the first
        measured from the start of the pass."""
        times = [self.start] + list(self.marks)
        return [b - a for a, b in zip(times, times[1:])]


def digest(texts):
    """Short SHA-256 over the given strings, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


class Run:
    """Per-run state: scratch directories, the digest book (expected
    from ``digests.json``, observed this run) and the host-speed samples.

    The shared host's speed flips between a fast and a slow state within
    seconds and drifts over minutes, by more than the bounds.  So while
    a run measures, :meth:`sample` times :func:`reference_loop` every
    :data:`SAMPLE_EVERY` seconds on a clock (:meth:`clock`) that stops
    meanwhile; a pass's wall times the :func:`host_scale` of the samples
    taken during it is its time on the nominal host."""

    def __init__(self, root, settings, expected):
        self.root = root
        self.settings = settings
        self.expected = expected if settings.pinned else {}
        self.observed = {}
        self.ref_times = []
        self._paused = 0.0
        self._dirs = 0

    def clock(self):
        """Seconds, not counting host-speed samples."""
        return clock() - self._paused

    def sampling_start(self):
        """Sample the host speed on ``SIGALRM`` until
        :meth:`sampling_stop`."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def sampling_stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, *_):
        """Time :func:`reference_loop` once, off the pass clock."""
        start = clock()
        reference_loop()
        took = clock() - start
        self.ref_times.append(took)
        self._paused += took

    def fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.root, "%s-%d" % (label, self._dirs))
        os.makedirs(path)
        return path

    def check(self, key, value):
        """1 if *value* differs from the pinned digest of *key* (or,
        unpinned, from the first value this run saw under *key*)."""
        want = self.expected.get(key, self.observed.get(key))
        self.observed.setdefault(key, value)
        return 0 if want is None or want == value else 1


def _results(value):
    return value if isinstance(value, list) else [value]


def _remove(path):
    shutil.rmtree(path, ignore_errors=True)


def compile_analogs(settings, warm_memo):
    """Build, compile and fingerprint every analog program.

    *warm_memo* also fills each workload's compiled-program memo (the
    first setup does, so no pass pays it); later setups recompile from
    the module to time the same work again."""
    from repro.pipeline.cache import program_fingerprint
    from repro.workloads import get
    from repro.workloads.base import compile_module

    for name in settings.workload_names():
        workload = get(name)
        program = (workload.program(1) if warm_memo
                   else compile_module(workload.build_module(1)))
        program_fingerprint(program)


# -- paper-cold / paper-warm ----------------------------------------------

def _paper_pass(run, cache_dir):
    from repro.analysis.base import Analysis
    from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
    from repro.pipeline import PipelineConfig, SimulationSession

    class Marker(Analysis):
        """Finish-only pass: when each analog's analysis completed."""

        def __init__(self):
            self.marks = []
            self.instructions = 0

        def finish(self, ctx):
            self.marks.append(run.clock())
            self.instructions += ctx.total_instructions

        def result(self):
            return None

    settings = run.settings
    start = run.clock()
    session = SimulationSession(PipelineConfig(
        workloads=settings.analogs,
        max_instructions=settings.max_instructions, cache_dir=cache_dir))
    suite, _ = build_suite(list(EXPERIMENT_ORDER))
    marker = suite.add(Marker(), name="loopbench-marker")
    results = session.analyze(suite)[:len(EXPERIMENT_ORDER)]
    rendered = [[r.render() for r in _results(res)] for res in results]
    end = run.clock()

    failed = 0
    for name, res, texts in zip(EXPERIMENT_ORDER, results, rendered):
        tables = texts + [r.to_json() for r in _results(res)]
        failed += run.check("paper/" + name, digest(tables))
    return PassResult(start, end, marker.marks, marker.instructions,
                      len(EXPERIMENT_ORDER), failed,
                      table1=_results(results[0])[0])


class Workload:
    """Base: *setup* (compile and fingerprint the analogs) repeats;
    *prime* (filling caches a workload starts from) runs once."""

    cache_dir = None

    def __init__(self, run):
        self.run = run
        self._setups = 0

    def setup(self):
        compile_analogs(self.run.settings, warm_memo=self._setups == 0)
        self._setups += 1

    def prime(self):
        """Returns ``(attempted, failed)`` of any checks it made."""
        return 0, 0

    def close(self):
        if self.cache_dir is not None:
            _remove(self.cache_dir)
            self.cache_dir = None


class PaperCold(Workload):
    """The ten paper experiments from an empty trace cache and derived
    store: interpretation, v3 encode, dataspec and every fallback run."""

    name = "paper-cold"

    def run_pass(self):
        cache_dir = self.run.fresh_dir("cold")
        try:
            return _paper_pass(self.run, cache_dir)
        finally:
            _remove(cache_dir)


class PaperWarm(Workload):
    """The same suite over a trace cache and derived store primed during
    setup; every pass builds a fresh session over them."""

    name = "paper-warm"

    def prime(self):
        self.cache_dir = self.run.fresh_dir("warm")
        primed = _paper_pass(self.run, self.cache_dir)
        return primed.attempted, primed.failed

    def run_pass(self):
        return _paper_pass(self.run, self.cache_dir)


# -- sweep-grid -------------------------------------------------------------

class SweepGrid(Workload):
    """An uncached sensitivity sweep into a fresh store over a primed
    trace cache, then the report rebuilt from the store (the ``runner
    query --report`` path)."""

    name = "sweep-grid"
    instructions = 0

    def spec(self):
        from repro.sweep import SweepSpec

        settings = self.run.settings
        return SweepSpec(experiment="sensitivity",
                         workloads=settings.workload_names(),
                         max_instructions=settings.max_instructions,
                         spawn_costs=settings.spawn_costs,
                         tu_counts=settings.tus)

    def prime(self):
        from repro.pipeline import PipelineConfig, SimulationSession
        from repro.pipeline.cache import TraceCache, program_fingerprint
        from repro.trace.io import read_cf_header
        from repro.workloads import get

        settings = self.run.settings
        self.cache_dir = self.run.fresh_dir("grid-cache")
        config = PipelineConfig(workloads=settings.workload_names(),
                                max_instructions=settings.max_instructions,
                                cache_dir=self.cache_dir)
        SimulationSession(config).ensure_traced()
        cache = TraceCache(self.cache_dir)
        self.instructions = 0
        for name in config.workloads:
            workload = get(name)
            path = cache.path(name, 1, config.limit_for(workload),
                              program_fingerprint(workload.program(1)))
            self.instructions += read_cf_header(path).total_instructions
        return 0, 0

    def run_pass(self):
        from repro.sweep import SweepStore, run_sweep
        from repro.sweep.query import sweep_report

        run = self.run
        # Only the trace cache stays primed: drop the derived results
        # the previous pass wrote, so every cell is computed.
        _remove(os.path.join(self.cache_dir, "derived"))
        store_dir = run.fresh_dir("grid-store")
        spec = self.spec()
        marks = []
        try:
            start = run.clock()
            with SweepStore(store_dir) as store:
                stats = run_sweep(
                    spec, store, jobs=1, cache_dir=self.cache_dir,
                    progress=lambda *_: marks.append(run.clock()))
                stored = store.spec_for(store.latest_sweep_id())
                results = sweep_report(store, stored)
                texts = [r.render() for r in results]
                end = run.clock()
                rows = store.get_cells(sweep_id=stored.sweep_id)
        finally:
            _remove(store_dir)

        cells = sorted(
            (row.cell_key, row.status, repr(row.tpc), repr(row.hit_ratio),
             repr(row.speedup), repr(row.overhead_cycles))
            for row in rows)
        failed = stats.failed + (stats.planned - stats.executed
                                 - stats.failed)
        failed += run.check("sweep-grid/report", digest(
            texts + [r.to_json() for r in results]))
        failed += run.check("sweep-grid/cells", digest(
            json.dumps(cell) for cell in cells))
        return PassResult(start, end, marks, self.instructions,
                          stats.planned + 2, failed)


# -- search -----------------------------------------------------------------

def candidate_violations(metrics, tus):
    """Simulated-statistic invariants of one candidate; returns how
    many fail: hit ratio in [0, 1]; ideal TPC in [1, TUs] with no
    overhead cycles; overhead TPC in (0, TUs] with overhead >= 0."""
    bad = 0
    for (_, leg), sim in metrics.sims.items():
        tpc = sim["tpc"]
        ok = 0.0 <= sim["hit_ratio"] <= 1.0 and tpc <= tus + 1e-9 \
            and sim["overhead_cycles"] >= 0
        if leg == "ideal":
            ok = ok and tpc >= 1.0 - 1e-9 and sim["overhead_cycles"] == 0
        else:
            ok = ok and tpc > 0.0
        bad += not ok
    return bad


class Search(Workload):
    """Serial tpc-inversion searches over :data:`SEARCH_SEEDS`, each
    from an empty trace cache and sweep store."""

    name = "search"

    def setup(self):
        from repro.sweep import SweepStore

        store_dir = self.run.fresh_dir("search-setup")
        with SweepStore(store_dir) as store:
            store.latest_sweep_id()
        _remove(store_dir)

    def run_pass(self):
        from repro.search.cli import _winner_table
        from repro.search.loop import run_search
        from repro.search.spec import SearchSpec
        from repro.sweep import SweepStore
        from repro.workloads import base as workloads_base

        run = self.run
        marks = []
        outcomes = []

        def progress(_, outcome, score):
            marks.append(run.clock())
            outcomes.append(outcome)

        # Candidates register as workloads (with their compiled
        # programs); forget them afterwards so every pass generates and
        # compiles from scratch, as a fresh ``runner search`` would.
        registered = set(workloads_base._REGISTRY)
        searches = []
        start = run.clock()
        for seed in SEARCH_SEEDS:
            spec = SearchSpec(objective=SEARCH_OBJECTIVE,
                              budget=run.settings.search_budget,
                              seed=seed)
            store_dir = run.fresh_dir("search-store")
            cache_dir = run.fresh_dir("search-cache")
            try:
                with SweepStore(store_dir) as store:
                    winners, stats = run_search(spec, store=store,
                                                cache_dir=cache_dir,
                                                progress=progress)
                table = _winner_table(spec, winners, stats)
                searches.append((spec, winners, stats, table,
                                 table.render()))
            finally:
                _remove(store_dir)
                _remove(cache_dir)
        end = run.clock()
        for name in set(workloads_base._REGISTRY) - registered:
            del workloads_base._REGISTRY[name]

        failed = 0
        attempted = 0
        for spec, winners, stats, table, text in searches:
            attempted += stats.evaluated + 1
            failed += stats.failures
            failed += run.check("search/seed%d" % spec.seed, digest(
                [text, table.to_json()] + [
                    json.dumps(w.metrics.to_dict(), sort_keys=True)
                    for w in winners]))
        instructions = 0
        tus = searches[0][0].settings.tus
        for outcome in outcomes:
            if outcome.metrics is not None:
                instructions += outcome.metrics.total_instructions
                failed += candidate_violations(outcome.metrics, tus) > 0
        return PassResult(start, end, marks, instructions, attempted,
                          failed)


WORKLOADS = {cls.name: cls for cls in (PaperCold, PaperWarm, SweepGrid,
                                        Search)}
