"""What a telemetry hub produced before its instruments were declared
in one table and updated from it, as literals (``telemetry_goldens.py``).

The ledger hashes one CSP replay's snapshot and ``monitor-smoke``
compares the code with itself; these pin the snapshot, the Prometheus
exposition and the scrape series of live service, serving and fleet
runs.  Captured at the parent commit, so the pinned hashes hold there
and must keep holding.
"""

import pytest

from repro.obs.telemetry import INSTRUMENTS
from telemetry_goldens import PRODUCT_HASHES, RUNS, product_hashes


@pytest.fixture(scope="module")
def hubs():
    return {name: build() for name, build in RUNS.items()}


@pytest.mark.parametrize("name", list(RUNS))
def test_snapshot_exposition_and_series_bytes_are_pinned(hubs, name):
    assert product_hashes(hubs[name]) == PRODUCT_HASHES[name]


def test_the_golden_runs_touch_every_instrument(hubs):
    touched = {
        instrument.name
        for hub in hubs.values()
        for instrument in hub.registry.instruments()
    }
    assert touched == set(INSTRUMENTS)
