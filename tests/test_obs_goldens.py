"""What the trace readers and the exporter produced before they shared
one run model and one kind table, as literals (``obs_goldens.py``).

The ledger pins five reader hashes on one 17-kind CSP trace and the
export double-run test compares the code with itself; these pin the
other systems, the stall-heavy and interrupted traces, and the 30 event
kinds the ledger's trace never carries.  Captured at the parent commit,
so every test here passes there and must keep passing.
"""

import pytest

from obs_goldens import (
    READER_HASHES,
    READER_RUNS,
    RENDERED,
    frozen,
    one_event_per_kind,
    reader_hashes,
    rendered_by_kind,
)
from repro.obs import to_perfetto, validate_chrome_trace, validate_trace


def test_the_goldens_cover_what_they_claim():
    assert set(READER_HASHES) == set(READER_RUNS)
    assert len(READER_HASHES) >= 13
    assert len(RENDERED) == 37


@pytest.mark.parametrize("name", list(READER_RUNS))
def test_summary_critical_path_and_what_if_bytes_are_pinned(name, tmp_path):
    assert reader_hashes(READER_RUNS[name](tmp_path)) == READER_HASHES[name]


def test_each_rendered_kind_exports_the_pinned_dict():
    trace = one_event_per_kind()
    assert validate_trace(trace) == []
    payload = to_perfetto(trace)
    assert validate_chrome_trace(payload) == []
    rendered = rendered_by_kind(payload)
    assert sorted(rendered) == sorted(RENDERED)
    for kind, event in rendered.items():
        assert frozen(event) == frozen(RENDERED[kind]), kind
