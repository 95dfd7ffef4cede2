"""Deterministic random program generator over mini-language ASTs.

:func:`generate_module` draws one program from a
:class:`~repro.workloads.synthetic.profile.WorkloadProfile` given a
seed.  All randomness comes from one host-side
:class:`~repro.util.rng.Xorshift64` consumed in a fixed order, so the
same ``(profile, seed)`` pair always emits an identical module — and
therefore an identical compiled program, trace, and trace-cache key.
Run-time irregularity (data-dependent exits and branches) is
implemented *inside* the generated program through the usual in-language
LCG, exactly like the hand-written analogs.

Every generated program provably halts within its instruction budget:

* every loop has a constant trip count (early ``Break`` only shortens
  executions, recursion depth is a compile-time constant passed down a
  strictly decreasing parameter),
* induction/counter variables are never assignment targets (locals are
  split into a readable scope and a writable subset), and
* trip counts are sized against a calibrated *expected*-cost model
  (:meth:`_Generator._trim_trips`) so one repetition lands near
  ``profile.target_instructions``; the model can undershoot reality by
  a small factor on unlucky draws, which is why profile validation
  demands ``default_max_instructions >= 4 * target_instructions`` of
  headroom (the built-ins keep ~16x).

Generated values are masked to 31 bits on every assignment, keeping the
simulated integers bounded however long the program runs.
"""

from repro.lang import (
    Assign,
    Break,
    CallExpr,
    DoWhile,
    For,
    If,
    Index,
    Module,
    Return,
    Store,
    Var,
    as_expr,
    module_stats,
)
from repro.util.rng import Xorshift64
from repro.workloads.common import LCG_MASK, add_lcg, rand, table_init

#: Expected compiled-cost estimates (instructions per construct),
#: calibrated against the tracer: a plain masked assignment costs ~7,
#: loop close/test ~6 per iteration, a helper call ~30, ``rand()`` ~28.
#: ``_EST_STMT`` folds in the expected branch-wrapping overhead.
_EST_STMT = 10          # one generated body slot, branches amortized
_EST_LOOP_ITER = 6      # per-iteration close/test/increment overhead
_EST_LOOP_SETUP = 8     # guard + induction init
_EST_CALL = 30          # call/prologue/epilogue/arg shuffling
_EST_RAND = 28          # rand(): call overhead + LCG body

_MIN_TRIP = 2

_BIN_OPS = ("+", "+", "-", "*", "&", "|", "^", "min", "max")

_U64 = (1 << 64) - 1


def _mix_seed(profile_name, seed):
    """Decorrelate the same seed across profiles (FNV-1a over the
    profile name, folded into the user seed)."""
    h = 0xCBF29CE484222325
    for ch in profile_name.encode("utf-8"):
        h = ((h ^ ch) * 0x100000001B3) & _U64
    return ((h ^ (seed * 0x9E3779B97F4A7C15)) & _U64) or 1


class _Draw:
    """Sampling helpers over one Xorshift64 stream."""

    def __init__(self, seed):
        self.rng = Xorshift64(seed)

    def randint(self, low, high):
        return self.rng.randint(low, high)

    def prob(self, p):
        return self.rng.next_u64() % 1_000_000 < int(p * 1_000_000)

    def weighted(self, pairs):
        total = sum(weight for _value, weight in pairs)
        pick = self.rng.next_u64() % total
        for value, weight in pairs:
            if pick < weight:
                return value
            pick -= weight
        raise AssertionError("unreachable")

    def choice(self, seq):
        return seq[self.rng.next_u64() % len(seq)]


class _Scope:
    """Names visible to generated expressions.

    ``readable`` includes parameters and induction variables;
    ``writable`` only plain locals, so loop counters are never
    assignment targets (termination) and every local's *first*
    assignment is unconditional (no read-before-write).
    """

    def __init__(self, readable, writable):
        self.readable = list(readable)
        self.writable = list(writable)
        self._fresh = 0

    def new_local(self, prefix):
        name = "%s%d" % (prefix, self._fresh)
        self._fresh += 1
        return name

    def introduced(self, name):
        self.readable.append(name)
        self.writable.append(name)

    def child(self, extra_readable):
        scope = _Scope(self.readable + list(extra_readable),
                       self.writable)
        scope._fresh = self._fresh
        return scope


class _Generator:
    def __init__(self, profile, seed):
        self.profile = profile
        self.seed = seed
        self.draw = _Draw(_mix_seed(profile.name, seed))
        self.module = Module("synth-%s-%d" % (profile.name, seed))
        self.arrays = []
        self.helpers = []        # (name, arity, est_cost)
        self.realized_depths = []

    # -- expressions -------------------------------------------------------

    def _operand(self, scope):
        roll = self.draw.randint(0, 5)
        if roll <= 2:
            return Var(self.draw.choice(scope.readable))
        if roll <= 4:
            array = self.draw.choice(self.arrays)
            return Index(array,
                         Var(self.draw.choice(scope.readable))
                         % self.profile.working_set)
        return self.draw.randint(1, 61)

    def _expr(self, scope):
        left = as_expr(self._operand(scope))
        op = self.draw.choice(_BIN_OPS)
        right = self._operand(scope)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "min":
            return left.min_(right)
        return left.max_(right)

    # -- statement slots ---------------------------------------------------

    def _slot(self, scope):
        """One generated body slot: a masked assignment or array store,
        possibly wrapped in a data-dependent branch."""
        if self.draw.prob(0.25):
            array = self.draw.choice(self.arrays)
            stmt = Store(array,
                         Var(self.draw.choice(scope.readable))
                         % self.profile.working_set,
                         self._expr(scope) & LCG_MASK)
            fresh = None
        elif scope.writable and self.draw.prob(0.7):
            stmt = Assign(self.draw.choice(scope.writable),
                          self._expr(scope) & LCG_MASK)
            fresh = None
        else:
            fresh = scope.new_local("v")
            stmt = Assign(fresh, self._expr(scope) & LCG_MASK)

        # Only rewrites of already-live names may be conditional: a
        # fresh local's first assignment stays unconditional.
        if fresh is None and self.draw.prob(self.profile.branch_density):
            cond = (Var(self.draw.choice(scope.readable))
                    & self.draw.randint(1, 7))
            if scope.writable and self.draw.prob(0.5):
                other = Assign(self.draw.choice(scope.writable),
                               self._expr(scope) & LCG_MASK)
                stmt = If(cond, [stmt], [other])
            else:
                stmt = If(cond, [stmt])
        if fresh is not None:
            scope.introduced(fresh)
        return stmt

    def _slots(self, scope, count):
        return [self._slot(scope) for _ in range(count)]

    # -- helpers and recursion ---------------------------------------------

    def _make_helpers(self):
        profile = self.profile
        if profile.call_mix > 0:
            for j in range(2):
                name = "helper%d" % j
                trip = self.draw.randint(2, 6)
                scope = _Scope(readable=["a", "b", "h"],
                               writable=["acc_l"])
                body = self._slots(scope, self.draw.randint(1, 3))
                cost = (_EST_CALL + _EST_LOOP_SETUP + 2 * _EST_STMT
                        + trip * (_EST_LOOP_ITER
                                  + len(body) * _EST_STMT))
                self.module.function(name, ["a", "b"], [
                    Assign("acc_l", Var("a") & LCG_MASK),
                    For("h", 0, trip, body),
                    Return((Var("acc_l") + Var("b")) & LCG_MASK),
                ])
                self.helpers.append((name, 2, cost))
        if profile.recursion_depth > 0:
            trip = self.draw.randint(2, 5)
            branching = 2 if self.draw.prob(0.5) else 1
            scope = _Scope(readable=["n", "x", "r"], writable=["x"])
            body = self._slots(scope, self.draw.randint(1, 2))
            recur = [If(Var("n") > 0, [
                Assign("x", (Var("x")
                             + CallExpr("rec", Var("n") - 1,
                                        (Var("x") + 1) & LCG_MASK))
                       & LCG_MASK)])]
            if branching == 2:
                recur.append(If((Var("n") > 0) & (Var("x") & 1), [
                    Assign("x", (Var("x")
                                 ^ CallExpr("rec", Var("n") - 1,
                                            Var("x") & LCG_MASK))
                           & LCG_MASK)]))
            self.module.function("rec", ["n", "x"], [
                For("r", 0, trip, body),
                *recur,
                Return(Var("x") & LCG_MASK),
            ])
            base = (_EST_CALL + _EST_LOOP_SETUP + 4 * _EST_STMT
                    + trip * (_EST_LOOP_ITER + len(body) * _EST_STMT))
            cost = base
            for _ in range(profile.recursion_depth):
                cost = base + branching * cost
            self.helpers.append(("rec-root", 1, cost))

    def _call_slot(self, scope):
        """A helper (or recursion-root) call folded into a writable."""
        name, arity, _cost = self.draw.choice(self.helpers)
        if name == "rec-root":
            depth = self.draw.randint(1, self.profile.recursion_depth)
            call = CallExpr("rec", depth,
                            Var(self.draw.choice(scope.readable))
                            & LCG_MASK)
        else:
            call = CallExpr(name,
                            *[Var(self.draw.choice(scope.readable))
                              for _ in range(arity)])
        target = self.draw.choice(scope.writable)
        return Assign(target, (call + Var(target)) & LCG_MASK)

    # -- loop nests --------------------------------------------------------

    def _nest_cost(self, trips, pre_counts, inner_extra):
        """Expected dynamic cost of a nest, innermost-out.

        Early-exit guards both cost instructions (the ``rand()`` call)
        and shorten executions; both effects are folded in with their
        draw probability so the estimate tracks the average program.
        """
        irregularity = self.profile.exit_irregularity
        cost = inner_extra
        for trip, pre in zip(reversed(trips), reversed(pre_counts)):
            per_iter = (pre * _EST_STMT + cost + _EST_LOOP_ITER
                        + irregularity * _EST_RAND)
            effective_trip = max(_MIN_TRIP,
                                 trip * (1.0 - 0.45 * irregularity))
            cost = _EST_LOOP_SETUP + int(effective_trip * per_iter)
        return cost

    def _trim_trips(self, trips, pre_counts, inner_extra, budget):
        """Shrink trip counts (outermost first) until the worst-case
        cost fits *budget*; drop innermost levels as a last resort."""
        trips = list(trips)
        pre_counts = list(pre_counts)
        while self._nest_cost(trips, pre_counts, inner_extra) > budget:
            reducible = [i for i, t in enumerate(trips) if t > _MIN_TRIP]
            if reducible:
                i = reducible[0]
                trips[i] = max(_MIN_TRIP, trips[i] // 2)
            elif len(trips) > 1:
                trips.pop()
                pre_counts.pop()
            else:
                break
        return trips, pre_counts

    def _build_nest(self, index, budget):
        profile = self.profile
        depth = self.draw.weighted(profile.nesting_depth)
        trips = [self.draw.randint(low, high)
                 for low, high in (self.draw.weighted(profile.trip_count)
                                   for _ in range(depth))]
        pre_counts = [self.draw.randint(*profile.body_ops)
                      for _ in range(depth)]

        wants_call = bool(self.helpers) \
            and self.draw.prob(profile.call_mix)
        call_cost = max(cost for _n, _a, cost in self.helpers) \
            if wants_call else 0
        trips, pre_counts = self._trim_trips(
            trips, pre_counts, call_cost + _EST_STMT, budget)
        depth = len(trips)

        # A sampled nest is usually far cheaper than its budget share;
        # an outer time-step loop (like the analogs' outer repetition
        # loops) repeats it to fill the budget.  The LCG state persists
        # across steps, so repetitions are not identical.
        est = self._nest_cost(trips, pre_counts, call_cost + _EST_STMT)
        reps = max(1, min(512, budget // max(1, est)))
        self.realized_depths.append(depth + (1 if reps > 1 else 0))

        scope = _Scope(readable=["base"], writable=["acc_n"])

        def build_level(level, scope):
            var = "i%d" % (index * 16 + level)
            inner = scope.child([var])
            body = self._slots(inner, pre_counts[level])
            if level == depth - 1:
                if wants_call:
                    body.append(self._call_slot(inner))
            else:
                body.extend(build_level(level + 1, inner))
            if self.draw.prob(profile.exit_irregularity):
                body.append(If((rand()
                                % max(2, trips[level] * 2)).eq(0),
                               [Break()]))
            if self.draw.prob(0.25):
                # Counted-down DoWhile variant (body runs >= 1 time;
                # the counter is readable but never a write target).
                return [Assign(var, trips[level]),
                        DoWhile(body + [Assign(var, Var(var) - 1)],
                                Var(var) > 0)]
            return [For(var, 0, trips[level], body)]

        nest_body = build_level(0, scope)
        # A recursive closure is a reference cycle through its own cell;
        # dropping it lets refcounting free this generator and its
        # module instead of leaving both to the cyclic collector.
        del build_level
        if reps > 1:
            nest_body = [For("step", 0, reps, nest_body)]
        name = "nest%d" % index
        self.module.function(name, ["base"], [
            Assign("acc_n", Var("base") & LCG_MASK),
            *nest_body,
            Return(Var("acc_n") & LCG_MASK),
        ])
        return name

    # -- module assembly ---------------------------------------------------

    def build(self, scale):
        profile = self.profile
        for a in range(profile.num_arrays):
            name = "data%d" % a
            self.module.array(
                name, profile.working_set,
                init=table_init(profile.working_set,
                                seed=_mix_seed(profile.name,
                                               self.seed * 31 + a),
                                low=0, high=255))
            self.arrays.append(name)
        add_lcg(self.module,
                seed=(_mix_seed(profile.name, self.seed)
                      & LCG_MASK) or 7)
        self.module.scalar("acc", 0)

        self._make_helpers()

        nest_budget = max(2_000,
                          profile.target_instructions
                          // profile.num_nests)
        nests = [self._build_nest(k, nest_budget)
                 for k in range(profile.num_nests)]

        calls = [Assign("acc",
                        (Var("acc")
                         + CallExpr(nest,
                                    (Var("rep") * 17 + k * 5)
                                    & LCG_MASK))
                        & LCG_MASK)
                 for k, nest in enumerate(nests)]
        self.module.function("main", [], [
            For("rep", 0, scale, calls),
            Return(Var("acc")),
        ])

        stats = module_stats(self.module)
        assert stats.loops >= profile.num_nests
        assert stats.max_syntactic_nesting == max(self.realized_depths)
        return self.module


def generate_module(profile, seed, scale=1):
    """Draw the ``(profile, seed)`` program as a compile-ready
    :class:`~repro.lang.ast.Module`; ``scale`` multiplies repetitions
    of the whole nest set without changing the program shape."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return _Generator(profile, seed).build(scale)
