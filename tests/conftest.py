import pytest
from hypothesis import Phase, settings

from primeconv import transforms

# A failing property reports its shrunk case without the explain phase, which
# re-runs that case once per drawn sample and can take minutes.  Every
# property test's own @settings inherits this profile.
settings.register_profile("no-explain",
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no-explain")


@pytest.fixture
def cold_rader_runners():
    """Empty the per-process Rader runner cache before and after the test: the
    test sees every build, and no later test sees a runner built while this
    one had something patched."""
    transforms._rader_runner.cache_clear()
    yield
    transforms._rader_runner.cache_clear()
