"""Table 2: control-speculation statistics for STR(3) with 4 TUs.

Columns follow the paper: number of speculation events, threads per
speculation, hit ratio, instructions from speculation to verification,
and TPC.
"""

from repro.analysis import Analysis
from repro.analysis.passes import shared_simulate_sims
from repro.core.speculation.metrics import SpeculationResult
from repro.experiments.report import ExperimentResult, TimingMeta

#: The paper's Table 2 configuration.
NUM_TUS = 4
POLICY = "str(3)"


class Table2Analysis(Analysis):
    #: No per-workload loop statistics, only :attr:`sims`.
    loopstats = False

    def __init__(self, num_tus=NUM_TUS, policy=POLICY):
        self.num_tus = num_tus
        self.policy = policy
        #: The ``(policy, tus, timing, spawn_cost)`` simulation priced
        #: per workload (timing ``None``: the session default).
        self.sims = [(policy, num_tus, None, 0)]
        self._rows = []
        self._results = {}
        self._timing = TimingMeta()

    def finish(self, ctx):
        result, = shared_simulate_sims(ctx, self.sims)
        self._results[ctx.name] = self._timing.fold(result)
        self._rows.append(result.as_table2_row())

    def result(self):
        return ExperimentResult(
            "Table 2: control speculation statistics (STR(3), 4 TUs)",
            SpeculationResult.TABLE2_HEADERS,
            self._rows,
            notes=["the paper reports hit ratios of 54-100% and TPC "
                   "1.06-3.85 across SPEC95"],
            extra={"results": self._results},
            meta=self._timing.as_meta(),
        )
