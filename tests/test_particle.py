import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlab.errors import FilterDegenerateError, SimulationDivergedError
from driftlab.kalman import kalman_loglik, ou_to_ssm
from driftlab.models import DiffusionSpec, OuParams, ou_spec
from driftlab.observe import NoisyObservationSet, ObservationModel
from driftlab.particle import (
    ParticleCloud,
    ess_of_weights,
    particle_filter,
    pf_profile_loglik,
    systematic_resample,
)
from driftlab.paths import TimeGrid
from driftlab.rng import stream
from driftlab.simulate import simulate_ou

OU = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.5, b0=0.0)


def _ou_dataset(scale, key, n=100, dt=0.1):
    grid = TimeGrid(0.0, dt * (n - 1), n - 1)
    latent = simulate_ou(OU, grid, (key, "path")).scalar_values()
    y = latent + scale * stream(key, "noise").standard_normal(n)
    return NoisyObservationSet(times=grid.times(), y_values=y), latent


def test_noise_free_limit_recovers_deterministic_path():
    # sigma = 0 state, near-zero observation noise, observations generated by
    # the same Euler discretization the filter propagates with: the filtered
    # means reproduce the observations to float precision
    from driftlab.paths import TimeGrid
    from driftlab.simulate import simulate_euler

    det = DiffusionSpec(drift=lambda x, th: -0.5 * x,
                        diffusion=lambda x, th: np.zeros_like(x),
                        theta=[0.0], x0=[2.0])
    substeps, n_obs = 20, 20
    fine = simulate_euler(det, TimeGrid(0.0, 0.25 * (n_obs - 1), substeps * (n_obs - 1)), 0)
    times = fine.times[::substeps]
    x = fine.values[::substeps, 0]
    obs = NoisyObservationSet(times=times, y_values=x)
    om = ObservationModel(kind="gaussian", scale=1e-9)
    res = particle_filter(det, om, obs, n_particles=50, substeps=substeps, seed=0)
    assert np.max(np.abs(res.filtered_means.values[:, 0] - x)) < 1e-6
    assert np.all(res.ess_trace > 49.99)


def test_exact_observations_of_constant_state():
    const = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                          diffusion=lambda x, th: np.zeros_like(x),
                          theta=[0.0], x0=[1.5])
    times = np.arange(5, dtype=float)
    obs = NoisyObservationSet(times=times, y_values=np.full(5, 1.5))
    om = ObservationModel(kind="gaussian", scale=1e-9)
    res = particle_filter(const, om, obs, n_particles=10, seed=1)
    assert np.max(np.abs(res.filtered_means.values[:, 0] - 1.5)) < 1e-6


def test_loglik_matches_kalman_oracle():
    obs, _ = _ou_dataset(scale=0.3, key=91)
    om = ObservationModel(kind="gaussian", scale=0.3)
    exact = kalman_loglik(ou_to_ssm(OU, om, obs.times), obs)
    lls = [particle_filter(ou_spec(OU), om, obs, 2000, substeps=5, seed=(91, k)).loglik
           for k in range(20)]
    sd = np.std(lls, ddof=1)
    assert abs(np.mean(lls) - exact) <= 3 * sd


def test_ess_bounds_and_reset_after_resample():
    obs, _ = _ou_dataset(scale=0.3, key=92)
    om = ObservationModel(kind="gaussian", scale=0.3)
    n = 200
    res = particle_filter(ou_spec(OU), om, obs, n, substeps=4, seed=7)
    assert np.all(res.ess_trace > 0)
    assert np.all(res.ess_trace <= n + 1e-9)
    assert len(res.resample_steps) > 0
    # the recorded ess right after a resampling step restarts from uniform
    # weights, so it jumps back toward n (it was below n/2 to trigger)
    nexts = [res.ess_trace[s + 1] for s in res.resample_steps
             if s + 1 < len(res.ess_trace)]
    assert np.median(nexts) > 0.7 * n
    assert np.mean(np.asarray(nexts) > 0.5 * n) > 0.8


def test_filtered_means_inside_particle_hull():
    # with one common propagation stream the filtered mean must lie between
    # the extreme particle states, checked via a wide-noise run
    obs, _ = _ou_dataset(scale=1.0, key=93, n=30)
    om = ObservationModel(kind="gaussian", scale=1.0)
    res = particle_filter(ou_spec(OU), om, obs, 500, substeps=2, seed=8)
    # crude hull check: means stay within the data's generous envelope
    assert np.all(np.abs(res.filtered_means.values[:, 0]) < 5.0)


def test_loglik_sd_shrinks_when_particles_quadruple():
    obs, _ = _ou_dataset(scale=0.3, key=94)
    om = ObservationModel(kind="gaussian", scale=0.3)
    sds = {}
    for n in (500, 2000):
        lls = [particle_filter(ou_spec(OU), om, obs, n, substeps=4, seed=(94, n, k)).loglik
               for k in range(20)]
        sds[n] = np.std(lls, ddof=1)
    assert 0.3 <= sds[2000] / sds[500] <= 0.8


def test_systematic_resample_preserves_weighted_mean():
    rng = stream(15)
    states = rng.standard_normal(50)
    w = rng.random(50)
    w /= w.sum()
    target = w @ states
    draws = np.array([
        states[systematic_resample(w, u)].mean()
        for u in stream(16).random(10_000)
    ])
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - target) < 3 * se


def test_systematic_resample_counts_match_weights():
    # each particle is copied floor(N w) or ceil(N w) times
    w = np.array([0.5, 0.25, 0.25])
    for u in (0.05, 0.4, 0.9):
        counts = np.bincount(systematic_resample(w, u), minlength=3)
        assert counts.sum() == 3
        for c, wi in zip(counts, w):
            assert np.floor(3 * wi) <= c <= np.ceil(3 * wi)


@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-30, 0)),
                min_size=2, max_size=40))
def test_cloud_mean_stays_inside_particle_hull(rows):
    states = np.array([r[0] for r in rows])
    log_w = np.array([r[1] for r in rows])
    cloud = ParticleCloud(states=states[:, None], log_weights=log_w)
    m = cloud.mean()[0]
    assert states.min() - 1e-9 <= m <= states.max() + 1e-9


def test_particle_cloud_invariants():
    cloud = ParticleCloud(states=np.array([[0.0], [1.0], [2.0]]),
                          log_weights=np.log([0.2, 0.3, 0.5]))
    assert cloud.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert cloud.ess == pytest.approx(1.0 / (0.04 + 0.09 + 0.25), rel=1e-12)
    assert cloud.mean()[0] == pytest.approx(1.3, rel=1e-12)
    assert ess_of_weights(np.full(4, 0.25)) == pytest.approx(4.0)


def test_filter_deterministic_under_seed():
    obs, _ = _ou_dataset(scale=0.3, key=95, n=40)
    om = ObservationModel(kind="gaussian", scale=0.3)
    a = particle_filter(ou_spec(OU), om, obs, 300, substeps=3, seed=17)
    b = particle_filter(ou_spec(OU), om, obs, 300, substeps=3, seed=17)
    assert a.loglik == b.loglik
    assert np.array_equal(a.filtered_means.values, b.filtered_means.values)
    assert np.array_equal(a.ess_trace, b.ess_trace)


def test_degenerate_weights_raise_with_step():
    obs = NoisyObservationSet(times=[0.0, 1.0], y_values=[0.0, 1e300])
    om = ObservationModel(kind="gaussian", scale=1e-3)
    with pytest.raises(FilterDegenerateError) as err:
        particle_filter(ou_spec(OU), om, obs, 50, seed=0)
    assert err.value.step == 1


def test_exploding_drift_raises_with_observation_index():
    # dx = x^2 dt from x0 = 1, one Euler step of 0.5 per gap: the recursion
    # x + x^2 * 0.5 first overflows on the gap into observation `first_bad`
    blowup = DiffusionSpec(drift=lambda x, th: x * x,
                           diffusion=lambda x, th: np.zeros_like(x),
                           theta=[0.0], x0=[1.0])
    x, first_bad = np.float64(1.0), 0
    with np.errstate(over="ignore"):
        while np.isfinite(x):
            x, first_bad = x + x * x * 0.5, first_bad + 1
    n = first_bad + 3
    obs = NoisyObservationSet(times=0.5 * np.arange(n), y_values=np.zeros(n))
    om = ObservationModel(kind="gaussian", scale=1e300)
    with pytest.raises(SimulationDivergedError) as err:
        particle_filter(blowup, om, obs, 20, seed=0)
    assert err.value.step == first_bad > 5


def test_profile_search_peaks_near_truth():
    obs, _ = _ou_dataset(scale=0.3, key=97, n=200)
    om = ObservationModel(kind="gaussian", scale=0.3)
    gammas = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    models = [ou_spec(OuParams(gamma=g, beta_bar=0.0, sigma=0.5, b0=0.0))
              for g in gammas]
    profile = pf_profile_loglik(models, om, obs, 1000, substeps=4, seed=6)
    assert gammas[np.argmax(profile)] in (0.5, 1.0, 2.0)
    # fixed seed per candidate: repeated profiles are identical
    again = pf_profile_loglik(models, om, obs, 1000, substeps=4, seed=6)
    assert np.array_equal(profile, again)


def test_json_output_fields():
    obs, _ = _ou_dataset(scale=0.3, key=96, n=10)
    om = ObservationModel(kind="gaussian", scale=0.3)
    res = particle_filter(ou_spec(OU), om, obs, 100, substeps=2, seed=3)
    d = res.to_json_dict()
    assert set(d) == {"loglik", "ess_trace", "filtered_means", "resample_steps", "seed"}
    assert len(d["filtered_means"]) == 10


def test_json_seed_is_the_full_tuple_key(tmp_path):
    obs, _ = _ou_dataset(scale=0.3, key=96, n=10)
    om = ObservationModel(kind="gaussian", scale=0.3)
    d = particle_filter(ou_spec(OU), om, obs, 100, seed=(3, "pf", 1)).to_json_dict()
    from driftlab.ioutil import write_json
    write_json(str(tmp_path / "filter.json"), d)
    assert json.loads((tmp_path / "filter.json").read_text())["seed"] == [3, "pf", 1]
