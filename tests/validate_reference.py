"""The trace schema check as it was before it read columns, as a reference.

Through commit ``ef7107e`` ``repro.obs.events.validate_trace`` built a
``TraceEvent`` and an attrs dict for every event and asked
``validate_event`` about it.  This module is that code, copied verbatim, so
``tests/test_validate_reference.py`` can assert the column pass returns the
identical problem list for any trace.
"""

from __future__ import annotations

import math
from typing import List

from repro.obs.events import _NUMBER, EVENT_SCHEMAS
from repro.sim.trace import ExecutionTrace, TraceEvent


def validate_event(event: TraceEvent) -> List[str]:
    """Schema-check one event; returns human-readable problems (empty =
    valid)."""
    schema = EVENT_SCHEMAS.get(event.kind)
    if schema is None:
        return [f"unknown event kind {event.kind!r}"]
    problems: List[str] = []
    time = event.time
    if (
        isinstance(time, bool)
        or not isinstance(time, _NUMBER)
        or not math.isfinite(time)
    ):
        problems.append(f"{event.kind}: time must be a finite number, got {time!r}")
    if schema.stage_scoped and event.stage < 0:
        problems.append(f"{event.kind}: stage must be >= 0, got {event.stage}")
    if not schema.stage_scoped and event.stage != -1:
        problems.append(f"{event.kind}: run-global event carries stage {event.stage}")
    if schema.subnet_scoped and event.subnet_id < 0:
        problems.append(
            f"{event.kind}: subnet_id must be >= 0, got {event.subnet_id}"
        )
    attrs = event.attrs_dict
    declared = schema.field_names()
    missing = [name for name in declared if name not in attrs]
    extra = [name for name in attrs if name not in declared]
    if missing:
        problems.append(f"{event.kind}: missing attrs {missing}")
    if extra:
        problems.append(f"{event.kind}: undeclared attrs {extra}")
    for spec in schema.fields:
        if spec.name not in attrs:
            continue
        value = attrs[spec.name]
        # bool is an int subclass; only accept it where declared.
        if isinstance(value, bool) and bool not in spec.types:
            problems.append(
                f"{event.kind}.{spec.name}: bool where {spec.types} expected"
            )
        elif not isinstance(value, spec.types):
            problems.append(
                f"{event.kind}.{spec.name}: {type(value).__name__} "
                f"where {spec.types} expected"
            )
    return problems


def validate_trace(trace: ExecutionTrace) -> List[str]:
    """Schema-check every event of a trace (empty list = all valid)."""
    problems: List[str] = []
    for event in trace.events:
        problems.extend(validate_event(event))
    return problems
