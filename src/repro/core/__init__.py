"""The characterization study: machines, metrics, experiments.

- :mod:`repro.core.machines` -- the three SGI platforms (Table 1);
- :mod:`repro.core.metrics` -- the paper's metric formulas (Section 3.1);
- :mod:`repro.core.counters` -- the perfex-like counter facade;
- :mod:`repro.core.study` -- workload construction + characterization runs;
- :mod:`repro.core.experiments` -- the per-table/figure registry;
- :mod:`repro.core.paperdata` -- transcribed reference values;
- :mod:`repro.core.sweep` -- the crash-safe cell store of the study CLIs.
"""

from repro.core.counters import PerfexSession
from repro.core.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    StudyRunner,
    current_scale,
    run_experiment,
)
from repro.core.machines import (
    SGI_O2,
    SGI_ONYX,
    SGI_ONYX2,
    STUDY_MACHINES,
    MachineSpec,
    machine_by_l2_mb,
)
from repro.core.metrics import MetricReport, compute_report, retime
from repro.core.platforms import EXTENDED_PLATFORMS, PlatformSpec
from repro.core.study import (
    StudyResult,
    Workload,
    build_workload_inputs,
    characterize_decode,
    characterize_encode,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "MachineSpec",
    "MetricReport",
    "PerfexSession",
    "SGI_O2",
    "SGI_ONYX",
    "SGI_ONYX2",
    "STUDY_MACHINES",
    "StudyResult",
    "EXTENDED_PLATFORMS",
    "PlatformSpec",
    "StudyRunner",
    "Workload",
    "build_workload_inputs",
    "characterize_decode",
    "characterize_encode",
    "compute_report",
    "current_scale",
    "machine_by_l2_mb",
    "retime",
    "run_experiment",
]
