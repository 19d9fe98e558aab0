"""Broadcast dispatch — the reference edge-triggered wake-ups must equal.

Until PR 17 the engine re-polled every stage after every task
completion.  That is trivially complete (no wake can be missed) and is
kept here, outside ``src/``, as the oracle: a run whose policy wakes
every stage must emit the identical event and interval streams.
"""


def broadcast(engine):
    """Make ``engine``'s policy name every stage on every completion."""
    engine.policy.wakes = lambda: range(engine.stages)
    return engine
