"""The 18-workload suite mirroring the paper's SPEC95 table order."""

# Importing the modules registers the workloads.
import repro.workloads.applu      # noqa: F401
import repro.workloads.apsi       # noqa: F401
import repro.workloads.compress   # noqa: F401
import repro.workloads.fpppp      # noqa: F401
import repro.workloads.gcc        # noqa: F401
import repro.workloads.go         # noqa: F401
import repro.workloads.hydro2d    # noqa: F401
import repro.workloads.ijpeg      # noqa: F401
import repro.workloads.li         # noqa: F401
import repro.workloads.m88ksim    # noqa: F401
import repro.workloads.mgrid      # noqa: F401
import repro.workloads.perl       # noqa: F401
import repro.workloads.su2cor     # noqa: F401
import repro.workloads.swim       # noqa: F401
import repro.workloads.tomcatv    # noqa: F401
import repro.workloads.turb3d     # noqa: F401
import repro.workloads.vortex     # noqa: F401
import repro.workloads.wave5      # noqa: F401

from repro.workloads.base import get

#: Table order used throughout the paper.
SUITE_ORDER = (
    "applu", "apsi", "compress", "fpppp", "gcc", "go", "hydro2d",
    "ijpeg", "li", "m88ksim", "mgrid", "perl", "su2cor", "swim",
    "tomcatv", "turb3d", "vortex", "wave5",
)


def suite():
    """The workloads in the paper's table order."""
    return [get(name) for name in SUITE_ORDER]
