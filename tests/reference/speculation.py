"""The speculation walk's reference: one configuration at a time, with
its own loop execution table and nesting stack.

:func:`repro.core.speculation.grid.simulate_grid` and the single-run
wrappers read the LET's prediction stream and the open-execution
stack from tables shared by every configuration, and leap over events
the tables prove inert.  This engine maintains both event by event --
the LET with its iteration-count predictors, the nesting stack -- and
carries its own copy of the four built-in policies' spawn rules, so
the tests pin the walk's precomputed prediction stream, its leap
rules, its oracle policy, its disable-table hooks and its timing seam
against an engine that computes each of them separately.  The
mechanics are the paper's section 3, as listed in
:mod:`repro.core.speculation.engine`.
"""

from repro.core.predictors import IterationCountPredictor
from repro.core.speculation.metrics import SpeculationResult
from repro.core.speculation.policies import (
    IdlePolicy,
    OracleAllPolicy,
    StrPolicy,
    make_policy,
)
from repro.core.tables import LoopHistoryTable
from repro.timing import make_timing


def spawn_count(policy, idle_tus, last_covered, prediction, oracle_total):
    """How many further iterations *policy* speculates (section 3.1.2).

    ``prediction`` is the LET's ``(count, mode)`` pair;
    ``oracle_total`` is the execution's actual iteration count, read
    only by the limit-study policy.
    """
    if isinstance(policy, IdlePolicy):
        return idle_tus
    if isinstance(policy, StrPolicy):
        count, mode = prediction
        if mode is None:
            # Neither a count nor a stride is known: behave like IDLE.
            return idle_tus
        remaining = count - last_covered
        if remaining <= 0:
            return 0
        return min(idle_tus, remaining)
    if isinstance(policy, OracleAllPolicy):
        remaining = oracle_total - last_covered
        return remaining if remaining > 0 else 0
    raise ValueError("no reference spawn rule for policy %r" % (policy,))


class SpecThread:
    """One speculative thread: a (possibly nonexistent) future iteration.

    ``start_seq is None`` marks a doomed thread speculating an iteration
    beyond the execution's actual count; it occupies a TU until the
    execution-end squash.  ``end_seq is None`` on an existing iteration
    marks the execution's last iteration, whose thread runs on into
    post-loop code until confirmed.
    """

    __slots__ = ("loop", "exec_id", "iteration", "start_seq", "end_seq",
                 "spawn_time", "spawn_seq")

    def __init__(self, loop, exec_id, iteration, start_seq, end_seq,
                 spawn_time, spawn_seq):
        self.loop = loop
        self.exec_id = exec_id
        self.iteration = iteration
        self.start_seq = start_seq
        self.end_seq = end_seq
        self.spawn_time = spawn_time
        self.spawn_seq = spawn_seq

    @property
    def exists(self):
        return self.start_seq is not None

    def __repr__(self):
        return ("SpecThread(loop=%d, exec=%d, iter=%d, exists=%s)"
                % (self.loop, self.exec_id, self.iteration, self.exists))


class ReferenceEngine:
    """Simulates one configuration of thread control speculation.

    ``num_tus=None`` models unlimited contexts and is only valid with
    the oracle policy (Figure 5's limit study).
    """

    def __init__(self, num_tus=4, policy="str", count_waiting=True,
                 disable_table=None, timing=None):
        self.policy = make_policy(policy)
        self.timing = make_timing(timing)
        if num_tus is None:
            if not isinstance(self.policy, OracleAllPolicy):
                raise ValueError(
                    "policy %s requires a finite number of TUs"
                    % self.policy.name)
        elif num_tus < 1:
            raise ValueError("num_tus must be >= 1 or None")
        self.num_tus = num_tus
        self.count_waiting = count_waiting
        self.disable_table = disable_table

    def begin(self, index, name="workload"):
        """Arm the engine for one simulation over the completed
        :class:`~repro.core.detector.LoopIndex` *index* (the engine is
        an oracle: spawns read future boundary seqs from it)."""
        self._index = index
        self._executions = index.executions
        self._result = SpeculationResult(
            name, self.num_tus if self.num_tus is not None else "inf",
            self.policy.name)
        self._result.total_instructions = index.total_instructions
        self._result.timing_name = self.timing.name
        self._cycles = self.timing.cycles
        self._overhead = 0
        self._now = 0
        self._pos = 0
        self._threads = {}          # exec_id -> list of SpecThread (FIFO)
        self._spec_count = 0
        self._let = LoopHistoryTable()
        self._stack = []            # (exec_id, loop), outermost first
        # The unbounded LET has no LRU state a lookup could perturb, so
        # policies that ignore predictions skip the lookup.
        self._skip_prediction = not isinstance(self.policy, StrPolicy)
        return self

    def finish(self):
        """Run out the post-loop tail and return the result."""
        if self._index.total_instructions > self._pos:
            self._now += self._cycles(
                self._pos, self._index.total_instructions - self._pos)
            self._pos = self._index.total_instructions
        self._result.total_cycles = self._now
        self._result.overhead_cycles = self._overhead
        self._result.unresolved_at_end = self._spec_count
        result = self._result
        if not self.count_waiting:
            result.credit_waiting = result.credit_executing
        return result

    def run(self, index, name="workload"):
        """Simulate over a :class:`~repro.core.detector.LoopIndex`.

        Runs of iteration starts at which provably nothing can happen
        -- every TU busy, execution untracked -- are jumped over, and
        the skipped clock advances telescope into the next visited
        event's :meth:`~repro.timing.base.TimingModel.cycles` call.
        """
        self.begin(index, name)
        self._run_columns(index.columns())
        return self.finish()

    def _run_columns(self, cols):
        etypes = cols.etypes
        seqs = cols.seqs
        loops = cols.loops
        exec_ids = cols.exec_ids
        auxs = cols.auxs
        next_non_iteration = cols.next_non_iteration
        next_iteration_after = cols.next_iteration_after
        n = len(etypes)
        threads = self._threads
        cycles = self._cycles
        num_tus = self.num_tus
        finite = num_tus is not None
        # The LET is write-only when the policy never reads predictions;
        # the nesting stack is only read by the STR(i) squash rule.
        track_let = not self._skip_prediction
        nesting_limit = self.policy.nesting_limit
        i = 0
        while i < n:
            if etypes[i] == 0:                      # EV_ITERATION
                exec_id = exec_ids[i]
                tlist = threads.get(exec_id)
                if tlist is None and finite \
                        and num_tus - 1 - self._spec_count <= 0:
                    # Nothing can happen here, nor at any following
                    # iteration start of an untracked execution: the
                    # TU population and the tracked set only change at
                    # visited events.  Jump to the next position where
                    # something can.
                    j = next_non_iteration[i + 1]
                    for tracked in threads:
                        k = next_iteration_after(tracked, i)
                        if k < j:
                            j = k
                    i = j
                    continue
                seq = seqs[i]
                if seq > self._pos:
                    self._now += cycles(self._pos, seq - self._pos)
                    self._pos = seq
                if tlist is not None \
                        and tlist[0].iteration == auxs[i]:
                    self._promote(tlist.pop(0), seq)
                    if not tlist:
                        del threads[exec_id]
                if not finite or num_tus - 1 - self._spec_count > 0:
                    self._spawn(seq, loops[i], exec_id, auxs[i])
            else:
                seq = seqs[i]
                if seq > self._pos:
                    self._now += cycles(self._pos, seq - self._pos)
                    self._pos = seq
                etype = etypes[i]
                if etype == 1:                      # EV_EXEC_START
                    if nesting_limit is not None:
                        self._stack.append((exec_ids[i], loops[i]))
                    if track_let:
                        entry = self._let.insert(loops[i])
                        if entry is not None and entry.payload is None:
                            entry.payload = IterationCountPredictor()
                    if nesting_limit is not None:
                        self._apply_nesting_squash(nesting_limit, seq)
                elif etype == 2:                    # EV_EXEC_END
                    self._end_execution(seq, loops[i], exec_ids[i],
                                        auxs[i], nesting_limit
                                        is not None, track_let)
                elif track_let:                     # EV_SINGLE
                    self._let_update(loops[i], 1)
            i += 1

    # -- event handlers -------------------------------------------------------

    def _end_execution(self, seq, loop, exec_id, iterations,
                       track_stack, track_let):
        threads = self._threads.pop(exec_id, None)
        if threads:
            result = self._result
            for thread in threads:
                result.squashed_misspec += 1
                result.resolved += 1
                result.instr_to_verif_total += seq - thread.spawn_seq
                if self.disable_table is not None:
                    self.disable_table.note(thread.loop, correct=False)
            self._spec_count -= len(threads)
            cost = self.timing.squash_cost(len(threads))
            if cost:
                self._now += cost
                self._overhead += cost
        if track_stack:
            for idx in range(len(self._stack) - 1, -1, -1):
                if self._stack[idx][0] == exec_id:
                    del self._stack[idx]
                    break
        if track_let:
            self._let_update(loop, iterations)

    # -- speculation mechanics -----------------------------------------------

    def _promote(self, thread, seq):
        """The speculated iteration is confirmed: its TU becomes the new
        non-speculative thread at wherever it has executed to."""
        self._spec_count -= 1
        elapsed = self._now - thread.spawn_time
        if thread.end_seq is not None:
            run_cap = thread.end_seq - thread.start_seq
        else:
            run_cap = self._index.total_instructions - thread.start_seq
        executed = self.timing.progress(elapsed, thread.start_seq,
                                        run_cap)
        new_pos = thread.start_seq + executed
        if new_pos > self._pos:
            self._pos = new_pos
        result = self._result
        result.promoted += 1
        result.resolved += 1
        result.instr_to_verif_total += seq - thread.spawn_seq
        result.credit_waiting += elapsed
        result.credit_executing += self._cycles(thread.start_seq,
                                                executed)
        if self.disable_table is not None:
            self.disable_table.note(thread.loop, correct=True)
        cost = self.timing.promote_cost()
        if cost:
            self._now += cost
            self._overhead += cost

    def _spawn(self, seq, loop, exec_id, iteration):
        num_tus = self.num_tus
        idle = float("inf") if num_tus is None \
            else num_tus - 1 - self._spec_count
        if idle <= 0:
            return
        if self.disable_table is not None \
                and self.disable_table.blocked(loop):
            return
        rec = self._executions[exec_id]
        total_iterations = rec.iterations \
            if rec.iterations is not None \
            else len(rec.iter_seqs) + 1
        iter_seqs = rec.iter_seqs
        threads = self._threads.get(exec_id)
        last_covered = threads[-1].iteration if threads else iteration
        # Iterations whose start the non-speculative position has already
        # passed (after a long promotion jump) are covered, not spawnable.
        while last_covered < total_iterations \
                and iter_seqs[last_covered - 1] <= self._pos:
            last_covered += 1

        prediction = (None, None) if self._skip_prediction \
            else self._let_prediction(loop)
        count = spawn_count(self.policy, idle, last_covered, prediction,
                            total_iterations)
        if count > idle:
            count = idle
        if count <= 0:
            return

        # Forking is charged to the non-speculative thread before the
        # spawned threads start running (spawn_time below sits after the
        # fork cost, so overheads delay the speculated work too).
        cost = self.timing.spawn_cost(int(count))
        if cost:
            self._now += cost
            self._overhead += cost

        result = self._result
        result.speculation_events += 1
        if threads is None:
            threads = self._threads.setdefault(exec_id, [])
        for j in range(last_covered + 1, last_covered + 1 + int(count)):
            if j <= total_iterations:
                start = iter_seqs[j - 2]
                end = iter_seqs[j - 1] if j < total_iterations else None
            else:
                start = None
                end = None
            threads.append(SpecThread(loop, exec_id, j, start, end,
                                      self._now, seq))
            self._spec_count += 1
            result.threads_spawned += 1

    def _apply_nesting_squash(self, limit, seq):
        """STR(i): squash the outermost speculated loop once more than
        *limit* non-speculated loops nest inside it."""
        for idx, (exec_id, _loop) in enumerate(self._stack):
            threads = self._threads.get(exec_id)
            if not threads:
                continue
            nested_unspeculated = sum(
                1 for inner_id, _ in self._stack[idx + 1:]
                if not self._threads.get(inner_id))
            if nested_unspeculated > limit:
                result = self._result
                for thread in threads:
                    result.squashed_policy += 1
                    result.resolved += 1
                    result.instr_to_verif_total += seq - thread.spawn_seq
                self._spec_count -= len(threads)
                del self._threads[exec_id]
                cost = self.timing.squash_cost(len(threads))
                if cost:
                    self._now += cost
                    self._overhead += cost
            break

    # -- helpers ------------------------------------------------------------------

    def _let_prediction(self, loop):
        entry = self._let.lookup(loop)
        if entry is None or entry.payload is None:
            return (None, None)
        return entry.payload.predict()

    def _let_update(self, loop, iterations):
        entry = self._let.insert(loop)
        if entry is None:
            return
        if entry.payload is None:
            entry.payload = IterationCountPredictor()
        entry.payload.update(iterations)


def simulate(index, num_tus=4, policy="str", name="workload",
             count_waiting=True, disable_table=None, timing=None):
    """The reference result of one configuration over *index*."""
    engine = ReferenceEngine(num_tus=num_tus, policy=policy,
                             count_waiting=count_waiting,
                             disable_table=disable_table, timing=timing)
    return engine.run(index, name=name)


def simulate_infinite(index, name="workload", timing=None):
    """The reference of Figure 5's study: unlimited TUs, oracle
    iteration counts."""
    return simulate(index, num_tus=None, policy=OracleAllPolicy(),
                    name=name, timing=timing)
