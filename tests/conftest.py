import numpy as np
import pytest

from kchain import driving


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def ladder(monkeypatch):
    """ladder(tol=..., nsub0=..., max_refine=...) sets the protocol's fixed
    refinement ladder (driving._TOL, _NSUB0 and _MAX_REFINE) for the rest of
    the test.  A whole-cell run's probe steps _NSUB0 // 8, which a folded
    sector halves, so nsub0 is a multiple of 16."""

    def set_ladder(**values):
        assert values.get("nsub0", 16) % 16 == 0, values
        for name, value in values.items():
            monkeypatch.setattr(driving, f"_{name.upper()}", value)

    return set_ladder
