import pytest

from tcpp.timechange import table_cache


@pytest.fixture(autouse=True)
def cold_table_cache():
    """Every test starts with no tables made: one that counts the work behind
    a table, or patches a route, must not be served an earlier test's table."""
    table_cache.cache_clear()
