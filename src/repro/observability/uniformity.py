"""Live leaf-histogram uniformity monitoring.

Path ORAM's security argument rests on every path access touching a leaf
drawn uniformly at random (paper section 2.1); a skewed leaf histogram is
the first observable symptom of a remap bug.  The offline harness in
:mod:`repro.security.statistics` audits finished runs; this monitor does
the same chi-squared test *during* a run, over a sliding window of recent
leaf observations, so long soaks can flag a uniformity regression at the
window where it appears instead of diluting it into millions of healthy
accesses.

The monitor speaks the :class:`~repro.security.observer.AccessObserver`
protocol (``on_path_access(leaf, kind)``), so it drops in anywhere an
observer is accepted -- including *in front of* an existing observer via
``forward_to``, which lets an audit run keep its full transcript while
the monitor watches windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.security.statistics import chi_square_uniformity


@dataclass
class UniformityCheck:
    """Result of one windowed chi-squared test."""

    window_index: int
    samples: int
    statistic: float
    p_value: float


class LeafUniformityMonitor:
    """Sliding-window chi-squared uniformity test over observed leaves.

    Args:
        num_leaves: leaf-label space size of the monitored tree.
        window: observations per test window.
        alpha: p-value threshold below which a window is flagged.
        forward_to: optional downstream observer that still receives every
            ``on_path_access`` call (observer chaining).
    """

    def __init__(
        self,
        num_leaves: int,
        window: int = 4096,
        alpha: float = 1e-4,
        forward_to=None,
    ):
        if num_leaves < 2:
            raise ValueError("need at least two leaves to test uniformity")
        if window < 1:
            raise ValueError("a uniformity window needs at least 1 observation")
        self.num_leaves = num_leaves
        self.window = window
        self.alpha = alpha
        self.forward_to = forward_to
        self.checks: List[UniformityCheck] = []
        self._buffer: List[int] = []

    # ------------------------------------------------------ observer protocol
    def on_path_access(self, leaf: int, kind: str = "real") -> None:
        self._buffer.append(leaf)
        if len(self._buffer) >= self.window:
            self._run_check()
        if self.forward_to is not None:
            self.forward_to.on_path_access(leaf, kind)

    # --------------------------------------------------------------- checking
    def _run_check(self) -> None:
        statistic, p_value = chi_square_uniformity(self._buffer, self.num_leaves)
        self.checks.append(
            UniformityCheck(
                window_index=len(self.checks),
                samples=len(self._buffer),
                statistic=statistic,
                p_value=p_value,
            )
        )
        self._buffer.clear()

    def flush(self) -> Optional[UniformityCheck]:
        """Test whatever partial window remains (end of run).

        A short tail returns an insufficient-data check (p = 1.0) instead
        of raising -- exactly the guard added to ``chi_square_uniformity``.
        """
        if not self._buffer:
            return None
        self._run_check()
        return self.checks[-1]

    # ---------------------------------------------------------------- queries
    @property
    def flagged(self) -> List[UniformityCheck]:
        return [check for check in self.checks if check.p_value < self.alpha]

    @property
    def healthy(self) -> bool:
        """True when no completed window fell below the alpha threshold."""
        return not self.flagged

    def render(self) -> str:
        lines = [
            f"leaf uniformity: {len(self.checks)} windows of {self.window} "
            f"(alpha={self.alpha:g})"
        ]
        if not self.checks:
            lines.append("  no complete windows observed")
            return "\n".join(lines)
        worst = min(self.checks, key=lambda check: check.p_value)
        lines.append(
            f"  worst window #{worst.window_index}: chi2={worst.statistic:.1f} "
            f"p={worst.p_value:.4g} over {worst.samples} samples"
        )
        status = "healthy" if self.healthy else f"FLAGGED ({len(self.flagged)} windows)"
        lines.append(f"  status: {status}")
        return "\n".join(lines)
