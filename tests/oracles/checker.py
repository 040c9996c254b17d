"""A closed-loop model with its batch hooks hidden.

:class:`~repro.core.wellformed.WellFormednessChecker` routes P2a/P2b/P3
through a model's ``*_batch`` hooks whenever the model provides them.
:class:`HooklessClosedLoop` exposes only the scalar
:class:`~repro.core.wellformed.ClosedLoopModel` protocol of the model it
wraps, so the checker runs its per-sample loops — the verdicts and
details the batched planes must match with ``==``.
"""

from __future__ import annotations

from typing import Any


class HooklessClosedLoop:
    """The scalar protocol of ``inner``, sharing its sampler stream."""

    def __init__(self, inner: Any) -> None:
        self.sample_safe_state = inner.sample_safe_state
        self.sample_safer_state = inner.sample_safer_state
        self.rollout_under_safe_controller = inner.rollout_under_safe_controller
        self.worst_case_stays_safe = inner.worst_case_stays_safe
