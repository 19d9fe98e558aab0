"""What a recovered run wrote before its format, its record and its
sweep each had one place to live, as literals (``ft_goldens.py``).

The ledger hashes one fleet sweep and the smoke jobs compare the code
with itself; these pin the availability summary, the chaos report
(serial and sharded) and the on-disk layout of one checkpoint cut.
Captured at the parent commit, so the pinned values hold there and must
keep holding.
"""

import pytest

from ft_goldens import PRODUCTS, products


@pytest.fixture(scope="module")
def fresh():
    return products()


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_recovered_run_bytes_are_pinned(fresh, name):
    assert fresh[name] == PRODUCTS[name]


def test_sharded_chaos_report_is_the_serial_one():
    assert PRODUCTS["chaos_jobs2"] == PRODUCTS["chaos_jobs1"]
