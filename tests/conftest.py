import hypothesis
import pytest

from prolong.sweep import SweepConfig, generate_pre_prolongations

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def default_sweep():
    """The default sweep's 1101 inputs, generated once per session."""
    return generate_pre_prolongations(SweepConfig())
