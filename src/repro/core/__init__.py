"""PrORAM: the paper's primary contribution (section 4).

* :mod:`repro.core.counters` -- merge/break counters reconstructed from the
  per-entry bits in PosMap blocks (section 4.1, Figure 4);
* :mod:`repro.core.thresholds` -- static (4.4.1) and adaptive (4.4.2,
  Equation 1) thresholding policies;
* :mod:`repro.core.dynamic` -- the dynamic super block scheme: the merge
  algorithm (Algorithm 1) and the break algorithm (Algorithm 2);
* :mod:`repro.core.hardware` -- storage overhead accounting
  (section 4.5).
"""

from repro.core.counters import (
    bits_to_value,
    initial_break_value,
    merge_counter_width,
    saturate,
    value_to_bits,
)
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import (
    AdaptiveThresholdPolicy,
    StaticThresholdPolicy,
    ThresholdPolicy,
)

__all__ = [
    "AdaptiveThresholdPolicy",
    "DynamicSuperBlockScheme",
    "StaticThresholdPolicy",
    "ThresholdPolicy",
    "bits_to_value",
    "initial_break_value",
    "merge_counter_width",
    "saturate",
    "value_to_bits",
]
