"""Metamorphic tests of ``mle_fit``: a change of units maps the fit as theory says.

Scaling time by c maps a rate (GBM's beta, OU's gamma) to rate / c and a
diffusion scale sigma to sigma / sqrt(c); scaling OU values by c maps beta_bar
and sigma to c times themselves; shifting OU values by a maps beta_bar to
beta_bar + a (Casella & Berger 2002, sec. 7.2.2).  Each case fits a record and
its transform from the mapped start and checks that
- ``converged`` agrees,
- the standard errors map by the same factors, within 1%,
- the estimates map within ``descend``'s stop on the working scale (an accepted
  step of at most 1e-9 * max(|z|, 1)), taken for each of the two fits.
Two cases miss the last by more than the stop; each is pinned as a known failure
that names its cause, so a fix shows as an unexpected pass.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab.adequacy import simulate_states_at
from driftlab.likelihood import (
    BridgeDensity,
    EulerDensity,
    GbmDensity,
    OuDensity,
    mle_fit,
    to_working,
)
from driftlab.models import GbmParams, OuParams, gbm_spec, ou_spec
from driftlab.observe import ObservationSet
from driftlab.rng import stream

STOP = 1e-9  # descend's stop, relative to max(|z|, 1) on the working scale

GBM_TIMES = 0.1 * np.arange(501)
GBM_VALUES = simulate_states_at(GbmParams(0.1, 0.3), GBM_TIMES, stream(5, "x"))[:, 0]
OU_TIMES = 0.1 * np.arange(201)
OU_VALUES = simulate_states_at(OuParams(1.0, 0.5, 0.4, 0.2), OU_TIMES, stream(7, "ou"))[:, 0]
BRIDGE_TIMES = 0.5 * np.arange(21)
BRIDGE_VALUES = simulate_states_at(GbmParams(0.1, 0.3), BRIDGE_TIMES, stream(9, "b"))[:, 0]

# name -> (density at theta and the first value, record, start theta)
CASES = {
    "gbm": (lambda th, x0: GbmDensity(GbmParams(*th)), GBM_TIMES, GBM_VALUES, (0.1, 0.3)),
    "ou": (lambda th, b0: OuDensity(OuParams(*th, b0)), OU_TIMES, OU_VALUES, (1.0, 0.5, 0.4)),
    "euler": (lambda th, b0: EulerDensity(ou_spec(OuParams(*th, b0))), OU_TIMES, OU_VALUES,
              (1.0, 0.5, 0.4)),
    "bridge": (lambda th, x0: BridgeDensity(gbm_spec(GbmParams(*th)), m_sub=4, j_samples=50,
                                            seed=3), BRIDGE_TIMES, BRIDGE_VALUES, (0.1, 0.3)),
}


def _fit(name, time_scale=1.0, value_scale=1.0, shift=0.0):
    """The fit of case ``name`` on its record with times x time_scale and values
    x value_scale + shift, started from the start mapped the same way; returns the
    fit, the factors u, a with theta' = u * theta + a, and the positivity mask."""
    density, times, values, start = CASES[name]
    u, a = _theta_map(name, time_scale, value_scale, shift)
    theta0 = u * np.array(start) + a
    values = value_scale * values + shift
    td = density(theta0, values[0])
    fit = mle_fit(td, ObservationSet(times=time_scale * times, values=values), theta0)
    return fit, u, a, np.array(td.positive_mask)


def _theta_map(name, time_scale, value_scale, shift):
    if name in ("gbm", "bridge"):  # (beta, sigma)
        return np.array([1.0 / time_scale, time_scale ** -0.5]), np.zeros(2)
    # (gamma, beta_bar, sigma)
    return (np.array([1.0 / time_scale, value_scale, value_scale * time_scale ** -0.5]),
            np.array([0.0, shift, 0.0]))


@lru_cache(maxsize=None)
def _reference(name):
    return _fit(name)[0]


def _check_maps(name, estimates=True, **transform):
    ref = _reference(name)
    fit, u, a, mask = _fit(name, **transform)
    assert fit.converged == ref.converged
    assert ref.standard_errors is not None and fit.standard_errors is not None
    np.testing.assert_allclose(fit.standard_errors, u * ref.standard_errors, rtol=0.01)
    if estimates:
        _assert_estimates_map(ref, fit, u, a, mask)


def _assert_estimates_map(ref, fit, u, a, mask):
    """The mapped reference estimate and the fit's agree on the working scale within
    the two fits' stops, the reference's carried to the new units (a log-scale
    coordinate shifts, any other scales by u)."""
    z_fit = to_working(fit.theta_hat, mask)
    stops = (STOP * np.maximum(np.abs(z_fit), 1.0) + np.where(mask, 1.0, u) * STOP
             * np.maximum(np.abs(to_working(ref.theta_hat, mask)), 1.0))
    miss = np.abs(z_fit - to_working(u * ref.theta_hat + a, mask))
    assert np.all(miss <= stops), (miss, stops)


SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("name", ["gbm", "ou", "euler"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(c=SCALES)
def test_time_scaling_maps_the_fit(name, c):
    _check_maps(name, time_scale=c)


@pytest.mark.parametrize("name", ["ou", "euler"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(c=SCALES)
def test_value_scaling_maps_the_ou_fit(name, c):
    _check_maps(name, value_scale=c)


# The estimates of the next two are pinned by the known failures below.
@pytest.mark.parametrize("name", ["ou", "euler"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(a=st.floats(-1e3, 1e3))
def test_value_shift_maps_the_ou_standard_errors(name, a):
    _check_maps(name, estimates=False, shift=a)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(c=SCALES)
def test_time_scaling_maps_the_bridge_standard_errors(c):
    _check_maps("bridge", estimates=False, time_scale=c)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="fisher_step "
                   "differences the moments at 1e-6 * max(|z|, 1), so the score of a record "
                   "far from 0 carries rounding of eps * |x| / 1e-6: log gamma-hat moves "
                   "1e-7 (OU) to 3e-7 (Euler) at a = 1e3, 49 to 150 times the stops")
@pytest.mark.parametrize("name", ["ou", "euler"])
def test_shifted_ou_estimates_map_within_the_stop(name):
    _assert_estimates_map(_reference(name), *_fit(name, shift=1e3))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="newton_step's probe is "
                   "absolute, 1e-4, for |z| < 1: at c = 1e4 it spans 11 standard errors of "
                   "beta, and the Newton fixed point, where the differenced gradient "
                   "vanishes, is biased")
def test_time_scaled_bridge_estimates_map_within_the_stop():
    _assert_estimates_map(_reference("bridge"), *_fit("bridge", time_scale=1e4))
