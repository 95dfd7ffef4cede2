"""Workload abstraction and registry.

A workload is a named builder of mini-language modules whose dynamic
loop behaviour mirrors one SPEC95 program's row in the paper's Table 1
(iterations/execution, instructions/iteration, nesting depth, control
regularity).  ``scale`` multiplies the amount of work (outer repetitions
or grid/time steps) without changing the loop *shape*, standing in for
the paper's whole-run vs 10^9-instruction-prefix distinction.
"""

from repro.core.detector import LoopDetector
from repro.cpu import ChunkedCFTracer, trace_control_flow, trace_full
from repro.lang.compiler import compile_module


class Workload:
    """A registered synthetic benchmark."""

    def __init__(self, name, builder, description, category,
                 default_max_instructions=2_000_000):
        self.name = name
        self.builder = builder
        self.description = description
        self.category = category          # "int" or "fp"
        self.default_max_instructions = default_max_instructions
        self._program_cache = {}

    def build_module(self, scale=1):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        return self.builder(scale)

    def program(self, scale=1):
        """Compiled program, cached per scale."""
        if scale not in self._program_cache:
            self._program_cache[scale] = compile_module(
                self.build_module(scale))
        return self._program_cache[scale]

    def cf_trace(self, scale=1, max_instructions=None):
        limit = max_instructions or self.default_max_instructions
        return trace_control_flow(self.program(scale), limit)

    def full_trace(self, scale=1, max_instructions=None):
        limit = max_instructions or self.default_max_instructions
        return trace_full(self.program(scale), limit)

    def loop_index(self, scale=1, cls_capacity=16, max_instructions=None):
        limit = max_instructions or self.default_max_instructions
        header, batches = ChunkedCFTracer(self.program(scale),
                                          limit).columns()
        return LoopDetector(cls_capacity=cls_capacity).run_batches(
            batches, header.total_instructions)

    def __repr__(self):
        return "Workload(%r, %s)" % (self.name, self.category)


_REGISTRY = {}


def register(name, description, category,
             default_max_instructions=2_000_000):
    """Decorator registering a module-builder function as a workload."""
    def wrap(builder):
        if name in _REGISTRY:
            raise ValueError("workload %r already registered" % name)
        workload = Workload(name, builder, description, category,
                            default_max_instructions)
        _REGISTRY[name] = workload
        return builder
    return wrap


def register_workload(workload):
    """Register an already-built :class:`Workload` object (the synthetic
    resolver's path).

    Re-registering the *same object* is a no-op; a different object
    under a taken name raises (mirroring :func:`register`) rather than
    silently keeping the old builder.
    """
    existing = _REGISTRY.get(workload.name)
    if existing is workload:
        return workload
    if existing is not None:
        raise ValueError("workload %r already registered"
                         % workload.name)
    _REGISTRY[workload.name] = workload
    return workload


def get(name):
    """The registered workload called *name*.

    ``synth-<profile>-<seed>`` names resolve lazily through the
    deterministic generator (:mod:`repro.workloads.synthetic`) and are
    registered on first lookup — including inside pooled tracer
    processes, which resolve names through this function.
    ``frontier-<objective>-<k>`` names resolve through the committed
    frontier corpus (:mod:`repro.search.corpus`) the same way.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if name.startswith("synth-"):
        from repro.workloads.synthetic import resolve_synthetic
        return resolve_synthetic(name)
    if name.startswith("frontier-"):
        from repro.search.corpus import resolve_frontier
        return resolve_frontier(name)
    raise KeyError("unknown workload %r (known: %s)"
                   % (name, ", ".join(sorted(_REGISTRY))))


def names():
    return sorted(_REGISTRY)


def all_workloads():
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]
