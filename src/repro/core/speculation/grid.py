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
to it.  The walk is one source template (:data:`_WALK_SOURCE`),
compiled on first use into one function per policy kind, rate kind and
disable setting, so each carries only its own family's tests.
``tests/reference/speculation.py`` keeps a per-config engine that
maintains its own tables event by event; the tests pin the walk
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
  it from the columns (the start row's depth) and the tables (the
  parent per execution).
* **Irrelevant events.**  A configuration is only affected by
  iteration starts that can spawn, by the iterations and ends of
  executions it is speculating, and -- for STR(i) -- by execution
  starts whose stack is deeper than ``limit + 1``.  At an untracked
  iteration start with every TU busy, or where an STR-family
  prediction is already covered (:attr:`GridTables.may_spawn` is 0),
  the walk leaps straight to the next event that can matter.  Where
  the non-speculative position has reached the event's spawn horizon
  (:attr:`GridTables.spawn_until`), an STR-family attempt would spawn
  nothing, and the walk steps on without building it: at an untracked
  event before advancing the clock, at a tracked one after its
  promotion.  The STR(i) squash check walks the open stack only until
  it has seen every speculated execution: all of them are open, so
  all lie on the stack, and nothing further out can be squashed.

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

import re
from array import array
from bisect import bisect_right
from collections import namedtuple

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
        "pred_known", "pred_count", "may_spawn", "spawn_until",
        "parent"))):
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
      spawns;
    * ``spawn_until[i]`` -- the spawn horizon of iteration event ``i``.
      With ``positions`` the execution's iteration positions, an
      STR-family attempt at position ``pos`` covers up to
      ``last_covered = max(aux, min(total, k + 1))``, where ``k``
      counts the iteration starts ``seqs[positions[...]]`` at or
      before ``pos``, and spawns while that is below the prediction
      ``p``, so for an untracked execution it spawns nothing exactly
      when ``pos`` is at or past the horizon.  A tracked execution's
      threads only raise ``last_covered``: past the horizon it spawns
      nothing either.  The horizon is 0 where ``may_spawn[i]`` is 0;
      ``seqs[positions[p - 2]]``, the start of iteration ``p``, where
      ``p`` is known and at most the execution's iteration count; and
      ``total_instructions + 1``, past every position, otherwise.

    Per ``exec_id``, ``parent`` is the execution on top of the
    open-execution stack just before its execution start (``-1`` if
    none, and for single iterations, which push nothing).  The stack
    at an execution start is a function of the event list alone, so
    STR(i) walks never maintain one: the stack at start ``i`` of
    execution ``e`` is ``e`` and its ``parent`` chain, keeping the
    executions still open at ``i``, and its depth is ``auxs[i]``.
    """

    __slots__ = ()


def _deep_starts(cols, limit):
    """Ascending rows of the execution starts of *cols* whose stack is
    deeper than ``limit + 1``: the only starts at which the STR(i)
    squash rule (at least one speculated loop with more than *limit*
    unspeculated loops nested inside) can act.  Execution ids follow
    event order, so start rows ascend."""
    bound = limit + 1
    etypes = cols.etypes
    auxs = cols.auxs
    return [row for row in cols.start_rows
            if auxs[row] > bound and etypes[row] == 1]  # EV_EXEC_START


def grid_tables(index):
    """The :class:`GridTables` of *index*, built in one pass over its
    event columns.

    Cached on the index next to its event columns; every walk over
    this index shares one copy.
    Execution ids index the per-execution arrays: the detector numbers
    executions densely from 0.
    """
    cols = index.columns
    cached = getattr(index, "_grid_tables", None)
    if cached is not None and cached[0] is cols:
        return cached[1]
    etypes = cols.etypes
    seqs = cols.seqs
    loops = cols.loops
    exec_ids = cols.exec_ids
    auxs = cols.auxs
    end_rows = cols.end_rows
    iteration_positions = cols.iteration_positions
    n = len(etypes)
    pred_known = bytearray(n)
    pred_count = array("q", bytes(8 * n))
    may_spawn = bytearray(n)
    spawn_until = array("q", bytes(8 * n))
    beyond = index.total_instructions + 1
    horizon_exec = horizon_count = horizon = -1
    parent = array("q", [-1]) * len(cols.start_rows)
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
                    # An execution's events mostly share one
                    # prediction, and so one horizon.
                    if exec_ids[i] != horizon_exec \
                            or count != horizon_count:
                        horizon_exec = exec_ids[i]
                        horizon_count = count
                        positions = iteration_positions[horizon_exec]
                        horizon = seqs[positions[count - 2]] \
                            if count <= auxs[end_rows[horizon_exec]] \
                            else beyond
                    spawn_until[i] = horizon
            else:
                may_spawn[i] = 1
                spawn_until[i] = beyond
        elif etype == 1:                        # EV_EXEC_START
            exec_id = exec_ids[i]
            if stack:
                parent[exec_id] = stack[-1]
            stack.append(exec_id)
        elif etype == 2:                        # EV_EXEC_END
            exec_id = exec_ids[i]
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
    tables = GridTables(pred_known, pred_count, may_spawn, spawn_until,
                        parent)
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


#: The walk of every configuration, as one template.  :func:`_walk`
#: replaces each flag name with ``True``, ``False`` or a local of the
#: walk, and compiles the result; CPython drops the branches a constant
#: flag rules out, so a compiled walk tests only what its family needs:
#:
#: * ``PREDICTED`` -- the policy reads the LET prediction (``predicted``
#:   in the IDLE/STR walk, which prices both);
#: * ``NESTED`` -- the STR(i) squash rule;
#: * ``ORACLE`` -- the ``all`` policy's actual remaining count;
#: * ``POSITIONAL`` -- rates through ``model.cycles``/``model.progress``;
#: * ``DISABLE`` -- a disable table's ``blocked``/``note`` hooks.
#:
#: Speculative threads are ``(iteration, end_seq, spawn_time,
#: spawn_seq)`` tuples, kept per execution: their loop is the
#: execution's, and a thread is promoted only at its iteration's start
#: event, whose seq is the iteration's start.  Clock advances at skipped
#: events telescope into the next handled event.  The walk returns its
#: result and its work counts (:data:`_COUNTERS` order).
_WALK_SOURCE = '''\
def walk(index, tables, num_tus, policy, model, name, count_waiting,
         deep_starts, disable_table):
    cols = index.columns
    etypes = cols.etypes
    seqs = cols.seqs
    loops = cols.loops
    exec_ids = cols.exec_ids
    auxs = cols.auxs
    end_rows = cols.end_rows
    iteration_positions = cols.iteration_positions
    pred_known = tables.pred_known
    pred_count = tables.pred_count
    may_spawn = tables.may_spawn
    next_may_spawn = may_spawn.find
    spawn_until = tables.spawn_until
    parent = tables.parent
    total_instructions = index.total_instructions
    predicted = type(policy) is not IdlePolicy
    nesting_limit = policy.nesting_limit
    if NESTED:
        nest_bound = nesting_limit + 1
        num_deep = len(deep_starts)
    cycles = model.cycles
    progress = model.progress
    spawn_c = model.spawn_cost(1)
    squash_c = model.squash_cost(1)
    promote_c = model.promote_cost()
    if DISABLE:
        blocked = disable_table.blocked
        note = disable_table.note

    result = SpeculationResult(
        name, num_tus if num_tus is not None else "inf", policy.name)
    result.total_instructions = total_instructions
    result.timing_name = model.name
    threads = {}
    threads_get = threads.get
    budget = num_tus - 1 if num_tus is not None else INF
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
    leaps = 0
    horizon_skips = 0
    attempts = 0

    n = len(etypes)
    i = 0
    while i < n:
        etype = etypes[i]
        if etype == 0:                          # EV_ITERATION
            exec_id = exec_ids[i]
            tlist = threads_get(exec_id)
            if tlist is None:
                if spec_count >= budget or PREDICTED and not may_spawn[i]:
                    # Saturated, or a prediction already covered:
                    # nothing can happen until a tracked execution's
                    # next iteration start (promotion) or its end
                    # (squash), until -- with an idle TU -- the next
                    # event where a spawn is possible, or -- for
                    # STR(i) -- until the next execution start deep
                    # enough for the squash rule.  Untracked execution
                    # ends, single iterations and shallow starts in
                    # between are no-ops.
                    leaps += 1
                    if spec_count >= budget:
                        j = n
                    else:
                        j = next_may_spawn(1, i + 1)
                        if j < 0:
                            j = n
                    if threads:
                        for tracked in threads:
                            # Its next iteration start, else its end.
                            positions = iteration_positions[tracked]
                            k = bisect_right(positions, i)
                            k = positions[k] if k < len(positions) \\
                                else end_rows[tracked]
                            if k < j:
                                j = k
                        if NESTED:
                            k = bisect_right(deep_starts, i)
                            if k < num_deep and deep_starts[k] < j:
                                j = deep_starts[k]
                    i = j
                    continue
                if PREDICTED and pos >= spawn_until[i]:
                    # The spawn horizon: the position has reached the
                    # start of the predicted last iteration, so every
                    # predicted iteration is covered and the attempt
                    # would spawn nothing.  The next event may well
                    # spawn, so this is a step, not a leap.
                    horizon_skips += 1
                    i += 1
                    continue
            seq = seqs[i]
            if seq > pos:
                now += cycles(pos, seq - pos) if POSITIONAL else seq - pos
                pos = seq
            if tlist is not None and tlist[0][0] == auxs[i]:
                _, end_seq, spawn_time, spawn_seq = tlist.pop(0)
                if not tlist:
                    del threads[exec_id]
                    tlist = None
                spec_count -= 1
                elapsed = now - spawn_time
                if end_seq is not None:
                    cap = end_seq - seq
                else:
                    cap = total_instructions - seq
                if POSITIONAL:
                    executed = progress(elapsed, seq, cap)
                    credit_executing += cycles(seq, executed)
                else:
                    executed = elapsed if elapsed < cap else cap
                    credit_executing += executed
                new_pos = seq + executed
                if new_pos > pos:
                    pos = new_pos
                promoted += 1
                resolved += 1
                instr_to_verif += seq - spawn_seq
                credit_waiting += elapsed
                if DISABLE:
                    note(loops[i], True)
                if promote_c:
                    now += promote_c
                    overhead += promote_c
            if spec_count < budget \\
                    and not (DISABLE and blocked(loops[i])):
                if PREDICTED and pos >= spawn_until[i]:
                    # Past the horizon a tracked execution spawns
                    # nothing either: its threads only raise
                    # last_covered.
                    horizon_skips += 1
                    i += 1
                    continue
                attempts += 1
                idle = budget - spec_count
                positions = iteration_positions[exec_id]
                total = auxs[end_rows[exec_id]]
                last_covered = tlist[-1][0] if tlist else auxs[i]
                while last_covered < total \\
                        and seqs[positions[last_covered - 1]] <= pos:
                    last_covered += 1
                if ORACLE:
                    count = total - last_covered
                    if count > idle:
                        count = idle
                elif PREDICTED and pred_known[i]:
                    count = pred_count[i] - last_covered
                    if count > idle:
                        count = idle
                else:
                    count = idle
                if count > 0:
                    if spawn_c:
                        cost = spawn_c * count
                        now += cost
                        overhead += cost
                    speculation_events += 1
                    if tlist is None:
                        tlist = threads[exec_id] = []
                    for j in range(last_covered + 1,
                                   last_covered + 1 + count):
                        tlist.append((j, seqs[positions[j - 1]]
                                      if j < total else None, now, seq))
                    threads_spawned += count
                    spec_count += count
        elif etype == 2:                        # EV_EXEC_END
            tlist = threads.pop(exec_ids[i], None)
            if tlist is not None:
                seq = seqs[i]
                if seq > pos:
                    now += cycles(pos, seq - pos) if POSITIONAL \\
                        else seq - pos
                    pos = seq
                if DISABLE:
                    loop = loops[i]
                for thread in tlist:
                    instr_to_verif += seq - thread[3]
                    if DISABLE:
                        note(loop, False)
                squashed = len(tlist)
                squashed_misspec += squashed
                resolved += squashed
                spec_count -= squashed
                if squash_c:
                    cost = squash_c * squashed
                    now += cost
                    overhead += cost
        elif NESTED:
            if etype == 1 and threads and auxs[i] > nest_bound:
                # STR(i): squash the outermost speculated loop once
                # more than nesting_limit non-speculated loops nest
                # inside it.  The open stack is this execution's
                # parent chain, minus the executions already ended;
                # walk it innermost first.  Every tracked execution
                # is open, so it is on the chain: once all of them
                # are seen, the last one is the outermost.
                e = exec_ids[i]
                unspeculated = 0
                unseen = len(threads)
                while e >= 0:
                    if e in threads:
                        unseen -= 1
                        if not unseen:
                            break
                    elif end_rows[e] > i:
                        unspeculated += 1
                    e = parent[e]
                if e >= 0 and unspeculated > nesting_limit:
                    tlist = threads.pop(e)
                    seq = seqs[i]
                    for thread in tlist:
                        instr_to_verif += seq - thread[3]
                    squashed = len(tlist)
                    squashed_policy += squashed
                    resolved += squashed
                    spec_count -= squashed
                    if squash_c:
                        cost = squash_c * squashed
                        now += cost
                        overhead += cost
        i += 1

    if total_instructions > pos:
        now += cycles(pos, total_instructions - pos) if POSITIONAL \\
            else total_instructions - pos
    result.total_cycles = now
    result.overhead_cycles = overhead
    result.speculation_events = speculation_events
    result.threads_spawned = threads_spawned
    result.promoted = promoted
    result.squashed_misspec = squashed_misspec
    result.squashed_policy = squashed_policy
    result.credit_executing = credit_executing
    result.credit_waiting = credit_waiting if count_waiting \\
        else credit_executing
    result.instr_to_verif_total = instr_to_verif
    result.resolved = resolved
    result.unresolved_at_end = spec_count
    return result, (horizon_skips, leaps, attempts, promoted)
'''

#: The policy kinds a walk is generated for, and the flag values each
#: sets (see :data:`_WALK_SOURCE`).
_KINDS = {
    "idle/str": {"PREDICTED": "predicted", "NESTED": "False",
                 "ORACLE": "False"},
    "str(i)": {"PREDICTED": "True", "NESTED": "True", "ORACLE": "False"},
    "all": {"PREDICTED": "False", "NESTED": "False", "ORACLE": "True"},
}

#: The walk's work counts, in the order a walk returns them.
_COUNTERS = ("engine.horizon_skips", "engine.leaps", "engine.spawns",
                 "engine.promotions")

#: ``(kind, positional, disable)`` -> compiled walk, filled on first use.
_WALKS = {}


def _walk(kind, positional, disable):
    """The walk of one policy kind, rate kind and disable setting,
    compiled from :data:`_WALK_SOURCE` on first use."""
    key = (kind, positional, disable)
    walk = _WALKS.get(key)
    if walk is None:
        flags = dict(_KINDS[kind], POSITIONAL=str(positional),
                     DISABLE=str(disable))
        source = re.sub(r"\b(%s)\b" % "|".join(flags),
                        lambda match: flags[match.group(1)], _WALK_SOURCE)
        namespace = {"SpeculationResult": SpeculationResult,
                     "IdlePolicy": IdlePolicy,
                     "bisect_right": bisect_right, "INF": float("inf")}
        exec(compile(source, "<walk %s%s%s>" % (
            kind, " positional" if positional else "",
            " disable" if disable else ""), "exec"), namespace)
        walk = _WALKS[key] = namespace["walk"]
    return walk


def _run_fused(index, tables, num_tus, policy, model, name,
               count_waiting=True, deep_starts=None, disable_table=None,
               tally=None):
    """One configuration (checked by :func:`check_config`) over the
    shared tables of *index*, on the walk generated for its policy
    kind, rate kind and disable setting.

    *deep_starts* is :func:`_deep_starts` of the policy's
    nesting limit, computed here when not given.  The walk's work
    counts are added into the list *tally* (:data:`_COUNTERS`
    order), or to the active collector when *tally* is None.
    """
    if type(policy) is OracleAllPolicy:
        kind = "all"
    elif policy.nesting_limit is not None:
        kind = "str(i)"
        if deep_starts is None:
            deep_starts = _deep_starts(index.columns, policy.nesting_limit)
    else:
        kind = "idle/str"
    mtype = type(model)
    positional = (mtype.cycles is not TimingModel.cycles
                  or mtype.progress is not TimingModel.progress)
    walk = _walk(kind, positional, disable_table is not None)
    result, counts = walk(index, tables, num_tus, policy, model, name,
                          count_waiting, deep_starts, disable_table)
    if tally is None:
        for counter, count in zip(_COUNTERS, counts):
            obs.add(counter, count)
    else:
        for slot, count in enumerate(counts):
            tally[slot] += count
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
    tally = [0] * len(_COUNTERS)
    with obs.span("engine.simulate_grid", workload=name,
                  configs=len(configs)):
        if configs:
            tables = grid_tables(index)
            deep = {}
            for num_tus, policy, model in configs:
                limit = policy.nesting_limit
                if limit is not None and limit not in deep:
                    deep[limit] = _deep_starts(index.columns, limit)
                results.append(_run_fused(index, tables, num_tus, policy,
                                          model, name, count_waiting,
                                          deep.get(limit), tally=tally))
    if configs:
        obs.add("engine.fused_cells", len(configs))
        for counter, count in zip(_COUNTERS, tally):
            obs.add(counter, count)
    return results
