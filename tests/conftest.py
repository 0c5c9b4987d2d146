import json
from pathlib import Path

import pytest

from tcpp.timechange import table_cache


@pytest.fixture(autouse=True)
def cold_table_cache():
    """Every test starts with no tables made: one that counts the work behind
    a table, or patches a route, must not be served an earlier test's table."""
    table_cache.cache_clear()


@pytest.fixture(scope="session")
def inverse_tempered_oracle():
    """50-digit values for the inverse tempered clock, written by
    tests/oracles/make_inverse_tempered.py."""
    return json.loads((Path(__file__).parent / "oracles" / "inverse_tempered.json").read_text())
