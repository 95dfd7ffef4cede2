"""Per-layer tracing from outside the program.

:class:`Tracer` records one span (name, start, end, parent) per call
into a layer.  :func:`install` wraps the public entry points of each
``repro.*`` layer -- class methods on the class, module functions in
every loaded ``repro`` module that binds them by name -- and returns a
callable that puts every original back.  Nothing in ``src/`` is
edited; the spans live in memory until the benchmark reads them.

A layer's *self time* is its spans' duration minus the time their
child spans cover (:func:`self_times`).  Glue spans (session, sweep
and search orchestration) only give their children a parent: their
self time is the part of a pass no layer explains, reported as
``layers.unattributed_s``.
"""

import functools
import os
import sys
import time

#: Layers whose self time is orchestration, not attributed work.
GLUE = frozenset({"pipeline.session", "sweep", "search"})

#: Per-layer metrics in output order: (name, unit, better).  Every
#: ``*_s`` / ``*.s`` metric is the self time of one layer per pass;
#: counts are per pass too.
LAYER_METRICS = (
    ("cpu.cf_s", "s", "lower"),
    ("cpu.cf_instr", "count", "higher"),
    ("cpu.full_s", "s", "lower"),
    ("lang.compile_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("trace.encode_s", "s", "lower"),
    ("trace.decode_s", "s", "lower"),
    ("trace.bytes_written", "bytes", "lower"),
    ("trace.bytes_read", "bytes", "lower"),
    ("trace.kernels_s", "s", "lower"),
    ("trace.kernel_calls", "count", "lower"),
    ("detector.s", "s", "lower"),
    ("detector.records", "count", "higher"),
    ("detector.events", "count", "higher"),
    ("cls.sweep_s", "s", "lower"),
    ("tables.replay_s", "s", "lower"),
    ("tables.replays", "count", "lower"),
    ("branchpred.s", "s", "lower"),
    ("loopstats.s", "s", "lower"),
    ("spec.grid_s", "s", "lower"),
    ("spec.grid_tables_s", "s", "lower"),
    ("spec.fused_cells", "count", "higher"),
    ("spec.fallback_cells", "count", "lower"),
    ("spec.engine_s", "s", "lower"),
    ("spec.engine_calls", "count", "lower"),
    ("dataspec.s", "s", "lower"),
    ("dataspec.instr", "count", "higher"),
    ("analysis.feed_s", "s", "lower"),
    ("finish.table1_s", "s", "lower"),
    ("finish.figure4_s", "s", "lower"),
    ("finish.figure5_s", "s", "lower"),
    ("finish.figure6_s", "s", "lower"),
    ("finish.figure7_s", "s", "lower"),
    ("finish.table2_s", "s", "lower"),
    ("finish.figure8_s", "s", "lower"),
    ("finish.ablations_s", "s", "lower"),
    ("finish.baselines_s", "s", "lower"),
    ("finish.extensions_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("pipeline.fingerprint_s", "s", "lower"),
    ("pipeline.cache_hits", "count", "higher"),
    ("pipeline.derived_hits", "count", "higher"),
    ("pipeline.derived_misses", "count", "lower"),
    ("pipeline.derived_hit_ratio", "ratio", "higher"),
    ("pipeline.derived_read_s", "s", "lower"),
    ("pipeline.derived_flush_s", "s", "lower"),
    ("sweep.cells_executed", "count", "higher"),
    ("sweep.cells_failed", "count", "lower"),
    ("sweep.plan_s", "s", "lower"),
    ("sweep.cells_s", "s", "lower"),
    ("sweep.store_read_s", "s", "lower"),
    ("sweep.store_write_s", "s", "lower"),
    ("sweep.report_s", "s", "lower"),
    ("search.candidates", "count", "higher"),
    ("search.memo_hits", "count", "higher"),
    ("search.failures", "count", "lower"),
    ("search.plan_s", "s", "lower"),
    ("search.cells_s", "s", "lower"),
    ("search.finish_s", "s", "lower"),
    ("synthetic.generate_s", "s", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("layers.unattributed_s", "s", "lower"),
    ("layers.coverage", "ratio", "higher"),
    ("tracing.overhead_s", "s", "lower"),
)


def time_metric(layer):
    """The metric name of *layer*'s self time: ``detector`` ->
    ``detector.s``, ``spec.grid`` -> ``spec.grid_s``."""
    return layer + ("_s" if "." in layer else ".s")


class Tracer:
    """In-memory span and counter recorder (single-threaded)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []     # [name, start, end, parent index or None]
        self.stack = []     # indexes of open spans
        self.counts = {}
        self.sessions = []  # SessionStats of sessions created

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = self.clock()
        stack = self.stack
        while stack and stack.pop() != index:
            pass

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, name):
        """Whether a span called *name* is open."""
        spans = self.spans
        return any(spans[i][0] == name for i in self.stack)

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.sessions = []


def self_times(spans, begin=float("-inf"), end=float("inf")):
    """``layer -> seconds``: each span's duration minus the duration of
    its direct children, summed per span name, over the spans lying
    wholly inside ``[begin, end]``."""
    inside = [begin <= s[1] and s[2] is not None and s[2] <= end
              for s in spans]
    child = [0.0] * len(spans)
    for i, (_, start, stop, parent) in enumerate(spans):
        if inside[i] and parent is not None:
            child[parent] += stop - start
    out = {}
    for i, (name, start, stop, _) in enumerate(spans):
        if inside[i]:
            out[name] = out.get(name, 0.0) + (stop - start) - child[i]
    return out


# -- wrappers ---------------------------------------------------------------

def _call(tracer, fn, name, after):
    """*fn* wrapped in a span; *name* may be a callable of the tracer
    (context-dependent names); *after(args, result)* runs on return."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(tracer) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            result = after(args, result)
        return result
    return wrapper


def _steps(tracer, iterator, name, per_item=None, done=None):
    """Re-yield *iterator*, timing every ``next`` as a *name* span."""
    try:
        while True:
            index = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                break
            finally:
                tracer.close(index)
            if per_item is not None:
                per_item(item)
            yield item
        if done is not None:
            done()
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _generator(tracer, fn, name, per_item=None, done=None):
    """A generator method whose every step is a *name* span;
    *done(args)* runs once the generator is exhausted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _steps(tracer, iter(fn(*args, **kwargs)), name, per_item,
                      None if done is None else lambda: done(args))
    return wrapper


class _Patches:
    """Installed patches and how to undo them."""

    def __init__(self):
        self.undo = []

    def method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self.undo.append((cls, attr, original))

    def function(self, module, attr, wrapper_of):
        """Wrap ``module.attr`` and rebind every ``repro`` module global
        that holds the same function object."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self.undo.append((mod, key, original))

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo = []


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(tracer, experiments):
    """Wrap every layer entry point; returns the undo callable.

    *experiments* maps experiment names to their analysis classes (the
    ``finish.<name>`` spans).  Every ``repro`` module the benchmark
    drives must already be imported, so by-name bindings are found.
    """
    from repro.analysis.suite import AnalysisSuite
    from repro.core import branchpred, cls, detector, loopstats, tables
    from repro.core.dataspec import stats as dataspec
    from repro.core.speculation import engine, grid
    from repro.cpu import tracer as cpu
    from repro.experiments.report import ExperimentResult
    from repro.lang import compiler
    from repro.pipeline import cache, derived, session
    from repro.search import evaluate, loop as search_loop
    from repro.sweep import orchestrator, query, spec as sweep_spec, store
    from repro.trace import io, kernels
    from repro.workloads import base as workloads_base
    from repro.workloads.synthetic import generator, mutate
    import repro.workloads.synthetic as synthetic

    p = _Patches()
    t = tracer

    def span(name, after=None):
        return lambda fn: _call(t, fn, name, after)

    def counting(name, counter, measure):
        def after(args, result):
            t.count(counter, measure(args, result))
            return result
        return span(name, after)

    # cpu + lang + workloads
    p.function(cpu, "trace_control_flow", counting(
        "cpu.cf", "cpu.cf_instr", lambda a, r: r.total_instructions))
    p.method(cpu.ChunkedCFTracer, "batches", lambda fn: _generator(
        t, fn, "cpu.cf", done=lambda a: t.count(
            "cpu.cf_instr", a[0].total_instructions)))
    p.function(cpu, "trace_full", counting(
        "cpu.full", "dataspec.instr", lambda a, r: r.total_instructions))
    p.method(cpu.ChunkedFullTracer, "batches", lambda fn: _generator(
        t, fn, "cpu.full", per_item=lambda b: t.count("dataspec.instr",
                                                      len(b))))
    p.function(compiler, "compile_module", span("lang.compile"))
    p.method(workloads_base.Workload, "build_module",
             span("workloads.build"))
    for module, attr in ((generator, "generate_module"),
                         (mutate, "mutate_profile"),
                         (mutate, "random_profile"),
                         (synthetic, "ensure_profile_workload")):
        p.function(module, attr, span("synthetic.generate"))

    # trace io + kernels
    def read_stream(args, result):
        if result is None:
            return result
        t.count("trace.bytes_read", _file_size(args[0]))
        header, batches = result
        return header, _steps(t, iter(batches), "trace.decode")

    p.function(io, "open_cf_batches", span("trace.decode", read_stream))
    p.function(io, "load_cf_trace", counting(
        "trace.decode", "trace.bytes_read",
        lambda a, r: _file_size(a[0])))
    p.function(io, "read_cf_header", span("trace.decode"))
    p.function(io, "dump_cf_trace", span("trace.encode"))
    p.method(io.BatchTraceWriter, "write_batch", span("trace.encode"))
    p.method(io.BatchTraceWriter, "close", span("trace.encode"))
    for attr in ("store", "store_stream"):
        p.method(cache.TraceCache, attr, counting(
            "trace.encode", "trace.bytes_written",
            lambda a, r: _file_size(r)))
    for attr in ("backward_branch_mask", "taken_mask", "branch_columns",
                 "closing_branch_pcs", "classcost_extras",
                 "per_pc_runs"):
        p.function(kernels, attr, counting(
            "trace.kernels", "trace.kernel_calls", lambda a, r: 1))

    # CLS + detector
    def detected(args, result):
        if result:
            t.count("detector.events", len(result))
        return result

    def fed(args, result):
        t.count("detector.records", len(args[1]))
        return detected(args, result)

    p.method(detector.LoopDetector, "feed_batch", span("detector", fed))
    p.method(detector.LoopDetector, "finish", span("detector", detected))
    for attr in ("run", "run_batches", "index"):
        p.method(detector.LoopDetector, attr, span("detector"))

    def cls_sweep(fn):
        wrapped = _call(t, fn, "cls.sweep", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.inside("detector"):
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)
        return wrapper

    p.method(cls.CurrentLoopStack, "process_batch", cls_sweep)

    # tables, branch predictors, loop statistics
    sim = tables.TableHitRatioSimulator
    p.method(sim, "replay_columns", counting(
        "tables.replay", "tables.replays", lambda a, r: 1))
    p.method(sim, "replay", span("tables.replay"))
    p.method(sim, "ensure_replayed", span("tables.replay"))
    p.method(branchpred.BranchPredictionStream, "feed_batch",
             span("branchpred"))
    p.method(branchpred.BranchPredictionStream, "reports",
             span("branchpred"))
    p.function(branchpred, "measure_branch_prediction",
               span("branchpred"))
    p.function(branchpred, "closing_branch_pcs", span("branchpred"))
    p.function(loopstats, "compute_loop_statistics", span("loopstats"))
    p.function(loopstats, "loop_coverage", span("loopstats"))

    # speculation: fused grid, per-config engine, fallbacks
    p.function(grid, "grid_tables", span("spec.grid_tables"))
    p.function(grid, "simulate_grid", counting(
        "spec.grid", "spec.grid_configs", lambda a, r: len(r)))

    def engine_call(fn):
        wrapped = _call(t, fn, "spec.engine", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not t.inside("spec.engine"):
                t.count("spec.engine_calls")
                if t.inside("spec.grid"):
                    t.count("spec.fallback_cells")
            return wrapped(*args, **kwargs)
        return wrapper

    p.function(engine, "simulate", engine_call)
    p.function(engine, "simulate_infinite", engine_call)
    p.method(engine.SpeculationEngine, "run", span("spec.engine"))

    # data speculation
    for attr in ("analyze", "analyze_batches"):
        p.method(dataspec.DataSpeculationAnalyzer, attr,
                 span("dataspec"))

    # analysis fan-out, experiment finishes, rendering
    p.method(AnalysisSuite, "feed_batch", span("analysis.feed"))
    p.method(AnalysisSuite, "feed_events", span("analysis.feed"))
    for name, analysis_cls in experiments.items():
        p.method(analysis_cls, "finish", span("finish." + name))
    p.method(ExperimentResult, "render", span("report.render"))

    # pipeline: session glue, fingerprints, derived store
    def track(args, result):
        t.sessions.append(args[0].stats)
        return result

    p.method(session.SimulationSession, "__init__",
             span("pipeline.session", track))
    p.method(session.SimulationSession, "analyze",
             span("pipeline.session"))
    p.method(session.SimulationSession, "ensure_traced",
             span("pipeline.session"))
    p.function(cache, "program_fingerprint",
               span("pipeline.fingerprint"))
    store_cls = derived.DerivedStore

    def derived_get(args, result):
        t.count("pipeline.derived_hits" if result is not None
                else "pipeline.derived_misses")
        return result

    p.method(store_cls, "get", span("pipeline.derived_read", derived_get))
    p.method(store_cls, "put", span("pipeline.derived_write"))
    p.method(store_cls, "put_cells", span("pipeline.derived_write"))
    p.method(store_cls, "flush", span("pipeline.derived_flush"))

    # sweep: planning, per-workload cells, sqlite store, report
    def sweep_stats(args, result):
        t.count("sweep.cells_executed", result.executed)
        t.count("sweep.cells_failed", result.failed)
        return result

    p.function(orchestrator, "run_sweep", span("sweep", sweep_stats))
    p.function(sweep_spec, "expand_cells", span("sweep.plan"))
    p.function(sweep_spec, "workload_trace_key", span("sweep.plan"))
    p.function(orchestrator, "run_workload_cells", span(
        lambda tr: "search.cells" if tr.inside("search")
        else "sweep.cells"))
    for attr in ("put_cells", "record_sweep"):
        p.method(store.SweepStore, attr, span("sweep.store_write"))
    for attr in ("done_keys", "get_cells", "spec_for",
                 "latest_sweep_id", "close"):
        p.method(store.SweepStore, attr, span("sweep.store_read"))
    p.function(query, "sweep_report", span("sweep.report"))

    # search
    def search_stats(args, result):
        stats = result[1]
        t.count("search.candidates", stats.evaluated)
        t.count("search.memo_hits", stats.memo_hits)
        t.count("search.failures", stats.failures)
        return result

    p.function(search_loop, "run_search", span("search", search_stats))
    p.function(evaluate, "evaluate_candidate", span("search"))
    p.function(evaluate, "plan_candidate", span("search.plan"))
    p.function(evaluate, "candidate_cells", span("search.plan"))
    p.function(evaluate, "finish_candidate", span("search.finish"))

    return p.restore
