"""Speculation metrics: TPC and the Table 2 statistics."""


class SpeculationResult:
    """Outcome of one speculation simulation.

    TPC is the paper's metric: the average number of active and
    *correctly speculated* threads per cycle.  The non-speculative thread
    is always active; a speculative thread's cycles count only once it is
    verified correct (promoted).  ``tpc`` counts a correct thread's
    waiting-for-confirmation cycles as active (it holds completed future
    work); ``tpc_executing`` is the stricter variant counting only cycles
    spent executing instructions -- the ablation benchmark contrasts the
    two.

    ``timing_name`` records which :mod:`repro.timing` model priced the
    run (``"ideal"`` is the paper's machine) and ``overhead_cycles``
    the cycles it charged for spawns, promotions, and squashes --
    included in ``total_cycles``, zero under the ideal model.
    """

    __slots__ = ("name", "num_tus", "policy_name", "timing_name",
                 "overhead_cycles", "total_cycles",
                 "total_instructions", "speculation_events",
                 "threads_spawned", "promoted", "squashed_misspec",
                 "squashed_policy", "credit_waiting", "credit_executing",
                 "instr_to_verif_total", "resolved", "unresolved_at_end")

    def __init__(self, name, num_tus, policy_name):
        self.name = name
        self.num_tus = num_tus
        self.policy_name = policy_name
        self.timing_name = "ideal"
        self.overhead_cycles = 0
        self.total_cycles = 0
        self.total_instructions = 0
        self.speculation_events = 0
        self.threads_spawned = 0
        self.promoted = 0
        self.squashed_misspec = 0
        self.squashed_policy = 0
        self.credit_waiting = 0
        self.credit_executing = 0
        self.instr_to_verif_total = 0
        self.resolved = 0
        self.unresolved_at_end = 0

    # -- derived metrics ---------------------------------------------------

    @property
    def squashed(self):
        return self.squashed_misspec + self.squashed_policy

    @property
    def tpc(self):
        if not self.total_cycles:
            return 1.0
        return 1.0 + self.credit_waiting / self.total_cycles

    @property
    def tpc_executing(self):
        if not self.total_cycles:
            return 1.0
        return 1.0 + self.credit_executing / self.total_cycles

    @property
    def hit_ratio(self):
        resolved = self.promoted + self.squashed
        if not resolved:
            return 0.0
        return self.promoted / resolved

    @property
    def threads_per_speculation(self):
        if not self.speculation_events:
            return 0.0
        return self.threads_spawned / self.speculation_events

    @property
    def avg_instr_to_verification(self):
        if not self.resolved:
            return 0.0
        return self.instr_to_verif_total / self.resolved

    @property
    def speedup_bound(self):
        """Instructions per cycle of forward progress (= TPC under the
        1-IPC-per-TU model): how much faster than a single context the
        confirmed work advanced."""
        if not self.total_cycles:
            return 1.0
        return self.total_instructions / self.total_cycles

    # -- presentation ------------------------------------------------------

    TABLE2_HEADERS = ("program", "#spec.", "#threads/spec.", "hit ratio (%)",
                      "#instr. to verif", "TPC")

    def as_table2_row(self):
        return (self.name, self.speculation_events,
                round(self.threads_per_speculation, 2),
                round(100.0 * self.hit_ratio, 2),
                round(self.avg_instr_to_verification, 2),
                round(self.tpc, 2))

    # -- persistence -------------------------------------------------------

    def state(self):
        """Every stored field as a JSON-serializable dict -- the exact
        inverse of :meth:`from_state` (all fields are ints or strings;
        the derived metrics above are recomputed on restore)."""
        return {field: getattr(self, field) for field in self.__slots__}

    @classmethod
    def from_state(cls, state):
        """Rebuild a result from :meth:`state` output.

        Raises ``KeyError``/``TypeError`` on malformed input and
        ``ValueError`` on a negative counter (no simulation produces
        one); derived caches treat any of them as a miss.
        """
        result = cls(state["name"], state["num_tus"],
                     state["policy_name"])
        for field in cls.__slots__:
            value = state[field]
            if field not in ("name", "num_tus", "policy_name",
                             "timing_name"):
                if not isinstance(value, int):
                    raise TypeError("non-integer counter %r" % field)
                if value < 0:
                    raise ValueError("negative counter %r" % field)
            setattr(result, field, value)
        return result
