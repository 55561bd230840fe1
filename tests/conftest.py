import pytest

from orbitmoments.moment_lab import clear_stream_memo


@pytest.fixture(autouse=True)
def cold_stream_memo():
    """Each test starts with no memoized stream pieces and no cached class_prime_counts table."""
    clear_stream_memo()
