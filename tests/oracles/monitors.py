"""The scalar flush of the pairwise separation monitor.

:meth:`~repro.core.monitor.SeparationMonitor.flush` answers a captured
window with one batched N² query.  :class:`ScalarSeparationMonitor`
flushes the same window sample by sample with
:func:`~repro.geometry.min_pairwise_separation`, the pair loop the batched
query must match with ``==``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import SeparationMonitor, Violation
from repro.geometry import min_pairwise_separation


class ScalarSeparationMonitor(SeparationMonitor):
    """A :class:`SeparationMonitor` whose flush walks the pairs of each sample."""

    def flush(self) -> List[Tuple[int, Violation]]:
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        flushed: List[Tuple[int, Violation]] = []
        for serial, time, values in pending:
            positions = self._positions(values)
            if positions is None:
                continue
            distance, pair = min_pairwise_separation(positions)
            if distance >= self.min_separation:
                continue
            flushed.append((serial, self._violation(time, float(distance), pair, values)))
        return flushed
