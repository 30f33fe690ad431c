"""``particle_filter`` against a copy of the step loop it replaced, byte for byte.

The reference below is the filter as it stood before the lean step: every
observation density constant evaluated on each call, the columns always
summed, the degenerate check (no finite joint log-weight) and scipy-equivalent
``logsumexp`` on every step, fresh ``stream(seed, "prop" | "resample", i)``
generators, and the movement kernel updating its columns through index arrays.
Any change to a draw, a rounding or an order shows as unequal bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from driftlab.densities import logsumexp
from driftlab.errors import FilterDegenerateError, SimulationDivergedError
from driftlab.models import GbmParams, OuParams, gbm_spec, ou_spec
from driftlab.movement import position_indices, preset_integrated_rw_t
from driftlab.observe import NoisyObservationSet, ObservationModel, projection_link
from driftlab.particle import DiscreteKernel, particle_filter
from driftlab.rng import stream
from driftlab.simulate import euler_advance


def _reference_loglik(om, y, states):
    y = np.atleast_1d(np.asarray(y, dtype=float))[None, :]
    m = om.mean(np.atleast_2d(states))
    u = (y - m) / om.scale
    if om.kind == "gaussian":
        lp = -0.5 * u**2 - 0.5 * np.log(2.0 * np.pi) - np.log(om.scale)
    else:
        nu = om.dof
        lp = (gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0)
              - 0.5 * np.log(nu * np.pi) - np.log(om.scale)
              - (nu + 1.0) / 2.0 * np.log1p(u**2 / nu))
    return lp.sum(axis=1)


def _reference_filter(model, om, obs, n_particles, substeps, seed):
    is_kernel = isinstance(model, DiscreteKernel)
    d, n, y = model.state_dim, len(obs), obs.y2d()
    x = np.tile(model.x0, (n_particles, 1)).astype(float)
    log_w = np.full(n_particles, -np.log(n_particles))
    loglik, means, ess_trace, resample_steps = 0.0, np.empty((n, d)), np.empty(n), []
    with np.errstate(all="ignore"):
        for i in range(n):
            if i > 0:
                rng = stream(seed, "prop", i)
                if is_kernel:
                    x = np.asarray(model.propagate(x, rng), dtype=float)
                else:
                    gap = obs.times[i] - obs.times[i - 1]
                    z = rng.standard_normal((substeps, n_particles, d))
                    x = euler_advance(model, x, gap / substeps, z)
                if not np.all(np.isfinite(x)):
                    raise SimulationDivergedError(i, "non-finite particle state")
            log_joint = log_w + _reference_loglik(om, y[i], x)
            if not np.any(np.isfinite(log_joint)):
                raise FilterDegenerateError(i)
            step_ll = logsumexp(log_joint)
            loglik += step_ll
            log_w = log_joint - step_ll
            w = np.exp(log_w)
            ess = float(1.0 / np.sum(w**2))
            ess_trace[i] = ess
            means[i] = w @ x
            if ess < 0.5 * n_particles and i < n - 1:
                u = float(stream(seed, "resample", i).random())
                positions = (u + np.arange(n_particles)) / n_particles
                x = x[np.searchsorted(np.cumsum(w), positions).clip(0, n_particles - 1)]
                log_w = np.full(n_particles, -np.log(n_particles))
                resample_steps.append(i)
    return loglik, ess_trace, means, resample_steps


def _index_array_irw(step_sd, n_coords):
    pos = position_indices(n_coords)
    vel = pos + 1

    def propagate(states, rng):
        out = np.array(states, dtype=float)
        eps = step_sd * rng.standard_normal((len(out), n_coords))
        out[:, vel] += eps
        out[:, pos] += out[:, vel]
        return out

    return DiscreteKernel(x0=np.zeros(2 * n_coords), propagate=propagate)


def _same(a, b) -> bool:  # byte for byte, so NaN equals NaN and -0.0 does not equal 0.0
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_identical(model, reference_model, om, obs, n_particles, substeps, seed):
    res = particle_filter(model, om, obs, n_particles, substeps=substeps, seed=seed)
    loglik, ess_trace, means, resample_steps = _reference_filter(
        reference_model, om, obs, n_particles, substeps, seed)
    assert _same(res.loglik, loglik)
    assert _same(res.ess_trace, ess_trace)
    assert _same(res.filtered_means.values, means)
    assert res.resample_steps == resample_steps
    return res


@st.composite
def _filter_case(draw):
    kind = draw(st.sampled_from(["ou", "gbm", "irw"]))
    if kind == "irw":
        n_coords = draw(st.integers(1, 3))
        step_sd = draw(st.floats(0.05, 1.0))
        model = preset_integrated_rw_t(step_sd, 1.0, 3.0, n_coords)[0]
        reference = _index_array_irw(step_sd, n_coords)
        links = [None, projection_link(position_indices(n_coords)), lambda s: s[..., 0]]
    else:
        if kind == "ou":
            model = ou_spec(OuParams(gamma=draw(st.floats(0.2, 3.0)), beta_bar=draw(
                st.floats(-1.0, 1.0)), sigma=draw(st.floats(0.1, 1.5)), b0=0.5))
        else:
            model = gbm_spec(GbmParams(beta=draw(st.floats(-0.5, 0.5)),
                                       sigma=draw(st.floats(0.05, 0.8)), x0=1.0))
        reference = model
        links = [None, projection_link([0, 0]), lambda s: s[..., 0]]  # p = 1, 2, 1
    link = draw(st.sampled_from(links))
    dof = draw(st.sampled_from([None, 2.5, 5.0]))
    om = ObservationModel(kind="gaussian" if dof is None else "student_t",
                          scale=draw(st.floats(0.05, 2.0)), dof=dof, link=link)
    n_obs = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n_obs - 1, max_size=n_obs - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    p = om.mean(model.x0[None, :]).shape[1]
    y = 1.0 + stream(draw(st.integers(0, 2**32)), "y").standard_normal((n_obs, p))
    obs = NoisyObservationSet(times=times, y_values=y if p > 1 else y[:, 0])
    substeps = 1 if kind == "irw" else draw(st.integers(1, 5))
    return model, reference, om, obs, draw(st.integers(5, 80)), substeps, draw(st.integers(0, 99))


@settings(max_examples=60, derandomize=True)
@given(case=_filter_case())
def test_filter_equals_the_reference_step_loop(case):
    _assert_identical(*case)


def _kernel_case(y_values, scale, step_sd=0.3):
    kernel = preset_integrated_rw_t(step_sd, 1.0, 3.0)[0]
    reference = _index_array_irw(step_sd, 1)
    obs = NoisyObservationSet(times=np.arange(len(y_values), dtype=float), y_values=y_values)
    om = ObservationModel(kind="student_t", scale=scale, dof=3.0,
                          link=projection_link(position_indices(1)))
    return kernel, reference, om, obs


def test_runs_with_and_without_resampling_equal_the_reference():
    y = 0.1 * np.arange(20.0) ** 1.5
    resampled = _assert_identical(*_kernel_case(y, 0.2), 200, 1, 3)
    assert len(resampled.resample_steps) > 3
    kept = _assert_identical(*_kernel_case(y, 1e3), 200, 1, 3)
    assert kept.resample_steps == []


def test_finite_density_only_where_the_weight_is_zero_equals_the_reference():
    # a quarter of the particles sits at 1, the rest at 0, at every step; the
    # observation at step 1 zeroes the quarter's weights (ESS 3N/4, no
    # resampling) and the one at step 2 is finite only for that quarter, so
    # every joint weight is -inf: degenerate, though some density is finite
    def propagate(states, rng):
        return np.where(np.arange(len(states))[:, None] % 4 == 0, 1.0, 0.0)

    kernel = DiscreteKernel(x0=[0.0], propagate=propagate)
    obs = NoisyObservationSet(times=np.arange(4.0), y_values=[0.0, 0.0, 1.0, 1.0])
    om = ObservationModel(kind="gaussian", scale=1e-300)
    with pytest.raises(FilterDegenerateError) as new:
        particle_filter(kernel, om, obs, 40, seed=0)
    with pytest.raises(FilterDegenerateError) as old:
        _reference_filter(kernel, om, obs, 40, 1, 0)
    assert new.value.step == old.value.step == 2
    first_two = NoisyObservationSet(times=obs.times[:2], y_values=obs.y_values[:2])
    res = _assert_identical(kernel, kernel, om, first_two, 40, 1, 0)
    assert res.ess_trace[1] == pytest.approx(30.0) and res.resample_steps == []


@pytest.mark.parametrize("dof", [None, 3.0])
def test_degenerate_step_raises_as_the_reference(dof):
    obs = NoisyObservationSet(times=[0.0, 1.0, 2.0], y_values=[0.0, 0.1, 1e300])
    om = ObservationModel(kind="gaussian" if dof is None else "student_t", scale=1e-3, dof=dof)
    model = ou_spec(OuParams(gamma=1.0, beta_bar=0.0, sigma=0.5, b0=0.0))
    with pytest.raises(FilterDegenerateError) as new:
        particle_filter(model, om, obs, 50, seed=0)
    with pytest.raises(FilterDegenerateError) as old:
        _reference_filter(model, om, obs, 50, 1, 0)
    assert new.value.step == old.value.step == 2
