"""Experiment drivers: one module per paper table/figure.

================  ============================================
module            regenerates
================  ============================================
``table2``        Table II  — cell parameters + provenance
``table3``        Table III — LLC models (both configurations)
``table5``        Table V   — workloads and LLC mpki
``table6``        Table VI  — workload features
``figure1``       Figure 1  — fixed-capacity results
``figure2``       Figure 2  — fixed-area results
``figure4``       Figure 4  — correlation heatmaps
``coresweep``     Section V-C core-sweep sensitivity study
``lifetime``      Section VII future-work lifetime study
``techniques_study``  technique-group evaluation (extension)
``compression``   compacted-way compressed LLC study (extension)
``sensitivity``   robustness sweep of the headline conclusions
``dse``           Pareto frontier of the published-model grid (extension)
``runner``        run-everything CLI (``repro-experiments``)
================  ============================================
"""

from repro.experiments import (
    compression,
    coresweep,
    dse,
    lifetime,
    sensitivity,
    techniques_study,
    figure1,
    figure2,
    figure4,
    table2,
    table3,
    table5,
    table6,
)
from repro.experiments.common import ExperimentContext, TableWriter

__all__ = [
    "compression",
    "coresweep",
    "dse",
    "lifetime",
    "sensitivity",
    "techniques_study",
    "figure1",
    "figure2",
    "figure4",
    "table2",
    "table3",
    "table5",
    "table6",
    "ExperimentContext",
    "TableWriter",
]
