import pytest

from orbitmoments.moment_lab import clear_stream_memo


@pytest.fixture(autouse=True)
def cold_stream_memo():
    """Each test starts with no memoized stream pieces."""
    clear_stream_memo()
