import pytest

from primeconv import transforms


@pytest.fixture
def cold_rader_runners():
    """Empty the per-process Rader runner cache before and after the test: the
    test sees every build, and no later test sees a runner built while this
    one had something patched."""
    transforms._rader_runner.cache_clear()
    yield
    transforms._rader_runner.cache_clear()
