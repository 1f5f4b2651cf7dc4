"""Reproductions of every table and figure in the paper's evaluation (§IV).

One module per artifact:

- :mod:`repro.experiments.table1_vm_feasibility` — Table I
- :mod:`repro.experiments.table2_exec_time` — Table II
- :mod:`repro.experiments.table3_forward_progress` — Table III
- :mod:`repro.experiments.figure6_energy_breakdown` — Fig. 6 (+ the
  headline "51 % average energy reduction")
- :mod:`repro.experiments.figure7_allocation_quality` — Fig. 7
- :mod:`repro.experiments.figure8_capacitor_size` — Fig. 8
- :mod:`repro.experiments.analysis_cost` — §III-C complexity measurements
- :mod:`repro.experiments.ablations` — design-choice ablations (extension)

Each module exposes ``run(...)`` returning structured results and a
``main()`` that prints the paper-style table. ``python -m
repro.experiments.run_all`` regenerates everything (see EXPERIMENTS.md)
and checks the paper's claims (:mod:`repro.experiments.claims`).
"""

from repro.experiments.common import EvaluationContext, TBPF_VALUES

__all__ = ["EvaluationContext", "TBPF_VALUES"]
