"""Per-experiment modules regenerating every figure/table of the paper.

The drivers live here, one module per figure or table.  Every driver
keeps its historical name and signature and gains engine awareness where
it sweeps Monte-Carlo points:

==========================  =============================================
Module                      Experiment
==========================  =============================================
``fig3_trends``             Fig. 3(b) processor-size infidelity trends
``tables``                  Table I collision criteria, Table II compiles
``fig4_yield``              Fig. 4 yield-vs-qubits grid (engine-parallel)
``fig6_configurations``     Fig. 6 configuration counting
``sec5c_output``            Section V-C fabrication-output comparison
``fig7_detuning``           Fig. 7 detuning-binned CX model
``fig8_mcm``                Fig. 8 MCM vs. monolithic yield comparison
``fig9_heatmaps``           Fig. 9 average-infidelity heat-maps
``fig10_apps``              Fig. 10 application-level fidelity ratios
``topologies``              cross-topology yield / MCM comparisons
``tuning``                  as-fab vs. repaired yield, repair-budget sweep
``appsweep``                topology x routing x repair application sweep
==========================  =============================================

The CLI-facing experiment registry lives in ``repro.analysis.registry``.
"""

from repro.analysis.figures.appsweep import (
    AppSweepResult,
    AppSweepRow,
    run_appsweep,
)
from repro.analysis.figures.fig3_trends import Fig3Result, run_fig3_processor_trends
from repro.analysis.figures.fig4_yield import Fig4Result, run_fig4_yield_sweep
from repro.analysis.figures.fig6_configurations import run_fig6_configurations
from repro.analysis.figures.fig7_detuning import Fig7Result, run_fig7_detuning_model
from repro.analysis.figures.fig8_mcm import Fig8Result, run_fig8_yield_comparison
from repro.analysis.figures.fig9_heatmaps import Fig9Result, run_fig9_infidelity_heatmap
from repro.analysis.figures.fig10_apps import Fig10Result, run_fig10_applications
from repro.analysis.figures.sec5c_output import run_sec5c_fabrication_output
from repro.analysis.figures.topologies import (
    TopologyMCMResult,
    TopologyYieldResult,
    run_topology_mcm_comparison,
    run_topology_yield_comparison,
)
from repro.analysis.figures.tables import (
    Table1Result,
    Table2Result,
    run_table1_collision_criteria,
    run_table2_compiled_benchmarks,
)
from repro.analysis.figures.tuning import (
    RepairBudgetResult,
    TunedYieldResult,
    run_repair_budget_sweep,
    run_tuned_yield_comparison,
)

__all__ = [
    "AppSweepResult",
    "AppSweepRow",
    "run_appsweep",
    "Fig3Result",
    "Fig4Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Table1Result",
    "Table2Result",
    "TopologyMCMResult",
    "TopologyYieldResult",
    "RepairBudgetResult",
    "TunedYieldResult",
    "run_fig3_processor_trends",
    "run_fig4_yield_sweep",
    "run_fig6_configurations",
    "run_fig7_detuning_model",
    "run_fig8_yield_comparison",
    "run_fig9_infidelity_heatmap",
    "run_fig10_applications",
    "run_sec5c_fabrication_output",
    "run_table1_collision_criteria",
    "run_table2_compiled_benchmarks",
    "run_topology_mcm_comparison",
    "run_topology_yield_comparison",
    "run_repair_budget_sweep",
    "run_tuned_yield_comparison",
]
