import numpy as np
import pytest

from driftlab.models import (
    DiffusionSpec,
    GbmParams,
    OuParams,
    TvGrowthParams,
    gbm_spec,
    ou_spec,
)


def test_param_invariants():
    with pytest.raises(ValueError):
        GbmParams(beta=0.1, sigma=-0.1, x0=1.0)
    with pytest.raises(ValueError):
        GbmParams(beta=0.1, sigma=0.1, x0=0.0)
    with pytest.raises(ValueError):
        OuParams(gamma=0.0, beta_bar=0.0, sigma=0.1)
    with pytest.raises(ValueError):
        TvGrowthParams(gamma=1.0, beta_bar=0.1, sigma=0.1, x0=-1.0)


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        DiffusionSpec(drift=lambda x, th: x, diffusion=lambda x, th: x,
                      theta=[0.1], x0=[1.0, 2.0], state_dim=1)
    with pytest.raises(ValueError):
        DiffusionSpec(drift=lambda x, th: x, diffusion=lambda x, th: x,
                      theta=[0.1, 0.2], x0=[1.0], positive=(True,))


def test_with_theta_returns_new_spec():
    spec = gbm_spec(GbmParams(0.1, 0.2, 1.0))
    other = spec.with_theta([0.3, 0.4])
    assert np.array_equal(spec.theta, [0.1, 0.2])
    assert np.array_equal(other.theta, [0.3, 0.4])
    assert other.drift_at(np.array([2.0]))[0] == pytest.approx(0.6)


def test_builtin_drift_diffusion():
    g = gbm_spec(GbmParams(0.1, 0.2, 1.0))
    assert g.drift_at(np.array([2.0]))[0] == pytest.approx(0.2)
    assert g.diffusion_at(np.array([2.0]))[0] == pytest.approx(0.4)
    o = ou_spec(OuParams(2.0, 0.5, 0.3, 0.0))
    assert o.drift_at(np.array([1.0]))[0] == pytest.approx(-1.0)
    assert o.diffusion_at(np.array([1.0]))[0] == pytest.approx(0.3)

