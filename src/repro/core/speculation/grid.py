"""The speculation walk: shared tables, one walk per configuration.

Every speculation result in the package comes from :func:`_run_fused`,
the one walk over a :class:`~repro.core.detector.LoopIndex`'s event
columns (the mechanics are the paper's section 3, as listed in
:mod:`repro.core.speculation.engine`).  :func:`simulate_grid` prices N
``(num_tus, policy, timing)`` configurations over one index;
:func:`~repro.core.speculation.engine.simulate` and the infinite-TU
study price one.  The config-invariant tables are built in one pass
over the event list, then each configuration walks the shared columns
once, on its own, leaping wherever the tables prove nothing can happen
to it.  ``tests/reference/speculation.py`` keeps a per-config engine
that maintains its own tables event by event; the tests pin the walk
against it.

What the tables share
---------------------

* **The LET prediction stream.**  The unbounded loop execution table
  updates at execution ends and single iterations, never on the
  policy, TU count, timing model or disable table, so the prediction
  each iteration event would see is computed **once**
  (:func:`grid_tables`) and every configuration reads the columns.
* **The nesting stack.**  The open-execution stack at each execution
  start is also a function of the event list alone, so STR(i) reads
  it from the tables (depth and parent per execution).
* **Irrelevant events.**  A configuration is only affected by
  iteration starts that can spawn, by the iterations and ends of
  executions it is speculating, and -- for STR(i) -- by execution
  starts whose stack is deeper than ``limit + 1``.  At an untracked
  iteration start with every TU busy, or where an STR-family
  prediction is already covered (:attr:`GridTables.may_spawn` is 0),
  the walk leaps straight to the next event that can matter.

What a configuration brings
---------------------------

* **A built-in policy.**  IDLE spawns every idle TU, STR and STR(i)
  the predicted remaining count (IDLE without a prediction), and the
  limit study's ``all`` every remaining *actual* iteration, capped by
  the idle TUs; ``num_tus=None`` is an unlimited budget, valid only
  for ``all``.  The walk dispatches on these four types and rejects
  any other :class:`~repro.core.speculation.policies.Policy`.
* **A timing model.**  Costs are ``spawn_cost(1)``, ``squash_cost(1)``
  and ``promote_cost()`` per thread, so per-event costs must be linear
  in the thread count.  Rates are inlined (an advance costs its
  distance, progress is ``min(elapsed, cap)``) unless the model's class
  overrides :meth:`~repro.timing.base.TimingModel.cycles` or
  :meth:`~repro.timing.base.TimingModel.progress`; then the walk calls
  them.  Built-in positional models price an advance as a difference
  of prefix clocks, so the advances a leap skips telescope into the
  next visited event's.
* **An optional disable table** (section 2.3.2).  The walk asks
  ``blocked(loop)`` before each spawn and calls ``note(loop, correct)``
  at each promotion and each misspeculation squash; STR(i) squashes
  are policy decisions, not prediction failures, and are not noted.
  Skipping an event never skips a ``note``: leaps only pass events
  where nothing is resolved.
"""

from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import compress

from repro.core.speculation.metrics import SpeculationResult
from repro.core.speculation.policies import (
    IdlePolicy,
    OracleAllPolicy,
    StrIPolicy,
    StrPolicy,
    make_policy,
)
from repro.obs import collector as obs
from repro.timing import make_timing
from repro.timing.base import TimingModel

__all__ = ["check_config", "grid_tables", "simulate_grid"]


class GridTables(namedtuple("GridTables", (
        "pred_known", "pred_count", "may_spawn", "end_pos", "start_pos",
        "depth", "parent"))):
    """The config-invariant walk tables of one index (see
    :func:`grid_tables`).

    Per event position ``i``:

    * ``pred_known[i]``/``pred_count[i]`` -- the LET prediction an
      unbounded-table engine would read at iteration event ``i``
      (``pred_known[i] == 0`` means no prediction, the STR policies'
      IDLE fallback);
    * ``may_spawn[i]`` -- 1 at an iteration event where an STR-family
      policy could spawn for an untracked execution: no prediction, or
      a predicted count above the event's iteration number.  A spawn
      covers iterations past ``last_covered``, which starts at the
      event's iteration number and only grows, so at every other
      iteration event of an untracked execution no configuration
      spawns.

    Per ``exec_id``:

    * ``end_pos`` -- the position of its
      :class:`~repro.core.events.ExecutionEnd` (``len(events)`` if it
      never ends);
    * ``start_pos``/``depth``/``parent`` -- the position of its
      :class:`~repro.core.events.ExecutionStart`, the depth of the
      open-execution stack right after it, and the execution on top
      of that stack just before it (``-1`` if none).  ``depth`` is 0
      for single iterations, which push nothing.

    The open-execution stack at an execution start is a function of
    the event list alone, so STR(i) walks never maintain one: the
    stack at start ``i`` of execution ``e`` is ``e`` and its
    ``parent`` chain, keeping the executions still open at ``i``.
    """

    __slots__ = ()

    def deep_starts(self, limit):
        """Ascending positions of the execution starts whose stack is
        deeper than ``limit + 1``: the only starts at which the STR(i)
        squash rule (at least one speculated loop with more than
        *limit* unspeculated loops nested inside) can act.  Execution
        ids follow event order, so ``start_pos`` ascends."""
        bound = limit + 1
        return list(compress(self.start_pos,
                             [d > bound for d in self.depth]))


def grid_tables(index):
    """The :class:`GridTables` of *index*, built in one pass over its
    event columns.

    Cached on the index next to its event columns; every walk over
    this index shares one copy.
    Execution ids index the per-execution arrays: the detector numbers
    executions densely from 0.
    """
    cols = index.columns()
    cached = getattr(index, "_grid_tables", None)
    if cached is not None and cached[0] is cols:
        return cached[1]
    etypes = cols.etypes
    loops = cols.loops
    exec_ids = cols.exec_ids
    auxs = cols.auxs
    n = len(etypes)
    num_execs = len(index.executions)
    pred_known = bytearray(n)
    pred_count = array("q", bytes(8 * n))
    may_spawn = bytearray(n)
    end_pos = array("q", [n]) * num_execs
    start_pos = array("q", bytes(8 * num_execs))
    depth = array("q", bytes(8 * num_execs))
    parent = array("q", [-1]) * num_execs
    stack = []
    # loop -> [last count, stride, confidence]: the inlined form of
    # LoopHistoryTable + IterationCountPredictor for an unbounded
    # table (no evictions, so lookups cannot perturb state and the
    # stream is a pure function of the event list).
    table = {}
    for i in range(n):
        etype = etypes[i]
        if etype == 0:                          # EV_ITERATION
            entry = table.get(loops[i])
            if entry is not None:
                pred_known[i] = 1
                last, stride, confidence = entry
                if stride is not None and confidence >= 2:
                    count = last + stride
                else:
                    count = last
                pred_count[i] = count
                if count > auxs[i]:
                    may_spawn[i] = 1
            else:
                may_spawn[i] = 1
        elif etype == 1:                        # EV_EXEC_START
            exec_id = exec_ids[i]
            if stack:
                parent[exec_id] = stack[-1]
            stack.append(exec_id)
            start_pos[exec_id] = i
            depth[exec_id] = len(stack)
        elif etype == 2:                        # EV_EXEC_END
            exec_id = exec_ids[i]
            end_pos[exec_id] = i
            if stack[-1] == exec_id:
                stack.pop()
            else:
                stack.remove(exec_id)
            value = auxs[i]
            entry = table.get(loops[i])
            if entry is None:
                table[loops[i]] = [value, None, 0]
            else:
                stride = value - entry[0]
                if entry[1] is not None:
                    if stride == entry[1]:
                        if entry[2] < 3:
                            entry[2] += 1
                    elif entry[2] > 0:
                        entry[2] -= 1
                entry[0] = value
                entry[1] = stride
        elif etype == 3:                        # EV_SINGLE
            entry = table.get(loops[i])
            if entry is None:
                table[loops[i]] = [1, None, 0]
            else:
                stride = 1 - entry[0]
                if entry[1] is not None:
                    if stride == entry[1]:
                        if entry[2] < 3:
                            entry[2] += 1
                    elif entry[2] > 0:
                        entry[2] -= 1
                entry[0] = 1
                entry[1] = stride
    tables = GridTables(pred_known, pred_count, may_spawn, end_pos,
                        start_pos, depth, parent)
    index._grid_tables = (cols, tables)
    return tables


#: The policies the walk prices; it dispatches on their exact types.
_POLICIES = (IdlePolicy, StrPolicy, StrIPolicy, OracleAllPolicy)


def check_config(num_tus, policy, timing):
    """One configuration, validated: ``(num_tus, policy, model)``.

    Raises :class:`ValueError` for a policy that is not one of the four
    built-ins, for ``num_tus=None`` with any policy but the oracle, and
    for ``num_tus < 1``.
    """
    policy = make_policy(policy)
    if type(policy) not in _POLICIES:
        raise ValueError("policy %r is not IDLE, STR, STR(i) or ALL"
                         % (policy,))
    if num_tus is None:
        if type(policy) is not OracleAllPolicy:
            raise ValueError("policy %s requires a finite number of TUs"
                             % policy.name)
    elif num_tus < 1:
        raise ValueError("num_tus must be >= 1 or None")
    return num_tus, policy, make_timing(timing)


def _run_fused(index, tables, num_tus, policy, model, name,
               count_waiting=True, deep_starts=None, disable_table=None):
    """One configuration (checked by :func:`check_config`) over the
    shared tables of *index*.

    *deep_starts* is :meth:`GridTables.deep_starts` of the policy's
    nesting limit, computed here when not given.  Speculative threads
    are ``(loop, exec_id, iteration, start_seq, end_seq, spawn_time,
    spawn_seq)`` tuples.  Clock advances at skipped events telescope
    into the next handled event.
    """
    cols = index.columns()
    etypes = cols.etypes
    seqs = cols.seqs
    loops = cols.loops
    exec_ids = cols.exec_ids
    auxs = cols.auxs
    next_iteration_after = cols.next_iteration_after
    pred_known = tables.pred_known
    pred_count = tables.pred_count
    may_spawn = tables.may_spawn
    next_may_spawn = may_spawn.find
    end_pos = tables.end_pos
    depth = tables.depth
    parent = tables.parent
    executions = index.executions
    total_instructions = index.total_instructions

    mtype = type(model)
    positional = (mtype.cycles is not TimingModel.cycles
                  or mtype.progress is not TimingModel.progress)
    cycles = model.cycles
    progress = model.progress
    spawn_c = model.spawn_cost(1)
    squash_c = model.squash_cost(1)
    promote_c = model.promote_cost()
    if disable_table is not None:
        blocked = disable_table.blocked
        note = disable_table.note
    else:
        blocked = note = None

    result = SpeculationResult(
        name, num_tus if num_tus is not None else "inf", policy.name)
    result.total_instructions = total_instructions
    result.timing_name = model.name

    nesting_limit = policy.nesting_limit
    if nesting_limit is not None:
        if deep_starts is None:
            deep_starts = tables.deep_starts(nesting_limit)
        nest_bound = nesting_limit + 1
        num_deep = len(deep_starts)
    oracle = type(policy) is OracleAllPolicy
    # IDLE and the oracle never read a prediction, so every iteration
    # start may spawn while a TU is idle.
    unpredicted = oracle or type(policy) is IdlePolicy
    threads = {}
    threads_get = threads.get
    budget = num_tus - 1 if num_tus is not None else float("inf")
    spec_count = 0
    now = 0
    pos = 0
    overhead = 0
    speculation_events = 0
    threads_spawned = 0
    promoted = 0
    squashed_misspec = 0
    squashed_policy = 0
    credit_waiting = 0
    credit_executing = 0
    instr_to_verif = 0
    resolved = 0

    n = len(etypes)
    i = 0
    while i < n:
        etype = etypes[i]
        if etype == 0:                          # EV_ITERATION
            exec_id = exec_ids[i]
            tlist = threads_get(exec_id)
            if tlist is None and (spec_count >= budget
                                  or not (unpredicted or may_spawn[i])):
                # Untracked, and either saturated or an STR-family
                # no-spawn event: nothing can happen until a tracked
                # execution's next iteration start (promotion) or its
                # end (squash), until -- with an idle TU -- the next
                # event where a spawn is possible, or -- for STR(i) --
                # until the next execution start deep enough for the
                # squash rule.  Untracked execution ends, single
                # iterations and shallow starts in between are no-ops.
                if spec_count >= budget:
                    j = n
                else:
                    j = next_may_spawn(1, i + 1)
                    if j < 0:
                        j = n
                if threads:
                    for tracked in threads:
                        k = next_iteration_after(tracked, i)
                        if k < j:
                            j = k
                        k = end_pos[tracked]
                        if k < j:
                            j = k
                    if nesting_limit is not None:
                        k = bisect_right(deep_starts, i)
                        if k < num_deep and deep_starts[k] < j:
                            j = deep_starts[k]
                i = j
                continue
            seq = seqs[i]
            if seq > pos:
                now += cycles(pos, seq - pos) if positional else seq - pos
                pos = seq
            if tlist is not None and tlist[0][2] == auxs[i]:
                thread = tlist.pop(0)
                if not tlist:
                    del threads[exec_id]
                spec_count -= 1
                elapsed = now - thread[5]
                start_seq = thread[3]
                end_seq = thread[4]
                if end_seq is not None:
                    cap = end_seq - start_seq
                else:
                    cap = total_instructions - start_seq
                if positional:
                    executed = progress(elapsed, start_seq, cap)
                    credit_executing += cycles(start_seq, executed)
                else:
                    executed = elapsed if elapsed < cap else cap
                    credit_executing += executed
                new_pos = start_seq + executed
                if new_pos > pos:
                    pos = new_pos
                promoted += 1
                resolved += 1
                instr_to_verif += seq - thread[6]
                credit_waiting += elapsed
                if note is not None:
                    note(thread[0], True)
                if promote_c:
                    now += promote_c
                    overhead += promote_c
            if spec_count < budget \
                    and (blocked is None or not blocked(loops[i])):
                idle = budget - spec_count
                rec = executions[exec_id]
                iter_seqs = rec.iter_seqs
                total = rec.iterations
                if total is None:
                    total = len(iter_seqs) + 1
                tlist = threads_get(exec_id)
                last_covered = tlist[-1][2] if tlist else auxs[i]
                while last_covered < total \
                        and iter_seqs[last_covered - 1] <= pos:
                    last_covered += 1
                if oracle:
                    count = total - last_covered
                    if count > idle:
                        count = idle
                elif unpredicted or not pred_known[i]:
                    count = idle
                else:
                    count = pred_count[i] - last_covered
                    if count > idle:
                        count = idle
                if count > 0:
                    if spawn_c:
                        cost = spawn_c * count
                        now += cost
                        overhead += cost
                    speculation_events += 1
                    if tlist is None:
                        tlist = threads[exec_id] = []
                    loop = loops[i]
                    for j in range(last_covered + 1,
                                   last_covered + 1 + count):
                        if j <= total:
                            start = iter_seqs[j - 2]
                            end = iter_seqs[j - 1] if j < total else None
                        else:
                            start = None
                            end = None
                        tlist.append((loop, exec_id, j, start, end,
                                      now, seq))
                        threads_spawned += 1
                    spec_count += count
        elif etype == 2:                        # EV_EXEC_END
            exec_id = exec_ids[i]
            tlist = threads.pop(exec_id, None)
            if tlist is not None:
                seq = seqs[i]
                if seq > pos:
                    now += cycles(pos, seq - pos) if positional \
                        else seq - pos
                    pos = seq
                for thread in tlist:
                    squashed_misspec += 1
                    resolved += 1
                    instr_to_verif += seq - thread[6]
                    if note is not None:
                        note(thread[0], False)
                spec_count -= len(tlist)
                if squash_c:
                    cost = squash_c * len(tlist)
                    now += cost
                    overhead += cost
        elif etype == 1 and nesting_limit is not None and threads \
                and depth[exec_ids[i]] > nest_bound:   # EV_EXEC_START
            # STR(i): squash the outermost speculated loop once more
            # than nesting_limit non-speculated loops nest inside it.
            # The open stack is this execution's parent chain, minus
            # the executions already ended; walk it innermost first.
            e = exec_ids[i]
            left = depth[e]
            unspeculated = 0
            victim = None
            while left:
                if end_pos[e] > i:
                    left -= 1
                    tl = threads_get(e)
                    if tl:
                        victim = e
                        nested_unspeculated = unspeculated
                    else:
                        unspeculated += 1
                e = parent[e]
            if victim is not None and nested_unspeculated > nesting_limit:
                tl = threads.pop(victim)
                seq = seqs[i]
                for thread in tl:
                    squashed_policy += 1
                    resolved += 1
                    instr_to_verif += seq - thread[6]
                spec_count -= len(tl)
                if squash_c:
                    cost = squash_c * len(tl)
                    now += cost
                    overhead += cost
        i += 1

    if total_instructions > pos:
        now += cycles(pos, total_instructions - pos) if positional \
            else total_instructions - pos
    result.total_cycles = now
    result.overhead_cycles = overhead
    result.speculation_events = speculation_events
    result.threads_spawned = threads_spawned
    result.promoted = promoted
    result.squashed_misspec = squashed_misspec
    result.squashed_policy = squashed_policy
    result.credit_executing = credit_executing
    result.credit_waiting = credit_waiting if count_waiting \
        else credit_executing
    result.instr_to_verif_total = instr_to_verif
    result.resolved = resolved
    result.unresolved_at_end = spec_count
    return result


def simulate_grid(index, configs, name="workload", count_waiting=True):
    """Price every ``(num_tus, policy, timing)`` in *configs* over
    *index*; returns one :class:`SpeculationResult` per config, in
    config order.

    *configs* is a sequence of ``(num_tus, policy, timing)`` tuples --
    the policy a spec string or built-in :class:`~repro.core.
    speculation.policies.Policy`, the timing a spec string, model
    instance, or ``None`` (ideal).  Every configuration is checked
    (:func:`check_config`) before any is priced.
    """
    configs = [check_config(*config) for config in configs]
    results = []
    with obs.span("engine.simulate_grid", workload=name,
                  configs=len(configs)):
        if configs:
            tables = grid_tables(index)
            deep = {}
            for num_tus, policy, model in configs:
                limit = policy.nesting_limit
                if limit is not None and limit not in deep:
                    deep[limit] = tables.deep_starts(limit)
                results.append(_run_fused(index, tables, num_tus, policy,
                                          model, name, count_waiting,
                                          deep.get(limit)))
    if configs:
        obs.add("engine.fused_cells", len(configs))
    return results
