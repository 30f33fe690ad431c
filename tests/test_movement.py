import numpy as np
import pytest

from driftlab.adequacy import simulate_states_at
from driftlab.movement import gaussian_position_model, preset_integrated_rw_t
from driftlab.observe import NoisyObservationSet
from driftlab.particle import particle_filter
from driftlab.rng import stream


def test_zero_step_sd_moves_linearly():
    kernel, _ = preset_integrated_rw_t(step_sd=0.0, t_scale=0.1, t_dof=4.0)
    states = np.array([[0.0, 0.3]])
    for k in range(5):
        states = kernel.propagate(states, stream(0, k))
    assert states[0, 0] == pytest.approx(5 * 0.3, rel=1e-12)
    assert states[0, 1] == pytest.approx(0.3, rel=1e-12)


def test_large_dof_approaches_gaussian_loglik():
    step_sd, scale = 0.1, 0.3
    times = np.arange(30, dtype=float)
    kernel, _ = preset_integrated_rw_t(step_sd, scale, t_dof=1e6)
    om_g = gaussian_position_model(scale)
    gaps = []
    for run in range(10):
        pos = simulate_states_at(kernel, times, stream(41, "lat", run))[:, 0]
        y = pos + scale * stream(41, "noise", run).standard_normal(len(times))
        obs = NoisyObservationSet(times=times, y_values=y)
        kern_t, om_t = preset_integrated_rw_t(step_sd, scale, t_dof=1e6)
        ll_t = particle_filter(kern_t, om_t, obs, 400, seed=(41, "pf", run)).loglik
        ll_g = particle_filter(kernel, om_g, obs, 400, seed=(41, "pf", run)).loglik
        gaps.append(abs(ll_t - ll_g))
    assert np.mean(gaps) < 0.05


def test_outlier_hurts_student_t_less():
    step_sd, scale, dof = 0.1, 0.5, 3.0
    times = np.arange(40, dtype=float)
    kernel, om_t = preset_integrated_rw_t(step_sd, scale, dof)
    om_g = gaussian_position_model(scale)
    pos = simulate_states_at(kernel, times, stream(42, "lat"))[:, 0]
    y = pos + scale * stream(42, "noise").standard_normal(len(times))
    y[20] += 10 * scale
    obs = NoisyObservationSet(times=times, y_values=y)
    res_t = particle_filter(kernel, om_t, obs, 500, seed=(42, "pf"))
    res_g = particle_filter(kernel, om_g, obs, 500, seed=(42, "pf"))
    err_t = abs(res_t.filtered_means.values[20, 0] - pos[20])
    err_g = abs(res_g.filtered_means.values[20, 0] - pos[20])
    assert err_t < err_g


def test_two_coordinate_layout():
    kernel, om = preset_integrated_rw_t(0.1, 0.2, 4.0, n_coords=2)
    assert kernel.state_dim == 4
    states = np.zeros((3, 4))
    states[:, 1] = 1.0  # velocity of coordinate 1
    out = kernel.propagate(states, stream(1))
    assert np.all(out[:, 0] != 0.0)
    # observation links the two positions only
    assert om.mean(out).shape == (3, 2)


def test_parameter_validation():
    with pytest.raises(ValueError):
        preset_integrated_rw_t(-0.1, 0.2, 4.0)
    with pytest.raises(ValueError):
        preset_integrated_rw_t(0.1, 0.0, 4.0)
    with pytest.raises(ValueError):
        preset_integrated_rw_t(0.1, 0.2, 0.0)
