"""Experiment harness: regenerates every table and figure of the paper.

:data:`repro.harness.experiments.EXPERIMENTS` names one function per
experiment (DESIGN.md §3 is the index), and
:func:`repro.harness.experiments.run_experiment` runs one the way
``python -m repro report`` and the tier-1 shape tests
(``tests/test_paper_shapes.py``) do.

Every experiment runs at a configurable ``scale`` (fraction of the
paper's loop blocks, plus a rank cap) so both stay tractable; shapes are
scale-invariant because the calibration targets per-rank *rates*.
"""

from repro.harness.runner import CaseResult, run_case
from repro.harness import experiments

__all__ = ["CaseResult", "run_case", "experiments"]
