"""The paper's primary contribution: CSP pipeline scheduling.

Causal Synchronous Parallelism (Definition 2) requires that when subnets
``x < y`` share a layer, every access of ``y`` to that layer waits for
``x``'s WRITE.  This package implements:

* :class:`Task` — the minimal scheduling unit (a stage's forward or
  backward pass for one subnet);
* :class:`DependencyTracker` — per-layer release bookkeeping, the exact
  form of Definition 2's dependency-preservation property, with the
  elimination scheme (a finished subnet leaves it);
* :class:`CspScheduler` — Algorithm 2 (lowest-ID-first), the exact
  per-layer check popped from the tracker's readiness index;
* :class:`ContextPredictor` — Algorithm 3 (forecast the next scheduled
  tasks by re-running the scheduler against hypothetical state);
* :class:`StageContextManager` — pinned-CPU ↔ GPU parameter cache with
  prefetch/evict and cache-hit accounting;
* :class:`CspStageState` — the per-stage runtime lists of Algorithm 1
  (queue list, backward-ready list).
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.core.task": ("Task", "TaskKind"),
    "repro.core.dependency": ("DependencyTracker",),
    "repro.core.scheduler": ("CspScheduler", "ScheduleDecision"),
    "repro.core.predictor": ("ContextPredictor", "Prediction"),
    "repro.core.context_manager": ("StageContextManager",),
    "repro.core.runtime": ("CspStageState",),
})
