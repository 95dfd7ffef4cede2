"""Synthetic SPEC95-analog workload suite (see docs/WORKLOADS.md).

Two kinds of workloads live here: the 18 hand-written analogs that pin
the paper's Table 1 rows (``suite()``/``SUITE_ORDER``) and the
parametric ``synth-<profile>-<seed>`` programs drawn from
:mod:`repro.workloads.synthetic` profiles, resolved lazily through
:func:`get`.
"""

from repro.workloads.base import Workload, get, names, register, \
    register_workload
from repro.workloads.suite import SUITE_ORDER, suite

__all__ = [
    "Workload",
    "get",
    "names",
    "register",
    "register_workload",
    "SUITE_ORDER",
    "suite",
]
