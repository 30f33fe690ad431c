import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab.errors import DataFormatError, FilterDegenerateError, SimulationDivergedError
from driftlab.kalman import kalman_loglik, ou_to_ssm
from driftlab.models import DiffusionSpec, OuParams, ou_spec
from driftlab.movement import preset_integrated_rw_t
from driftlab.observe import NoisyObservationSet, ObservationModel
from driftlab.particle import (
    DiscreteKernel,
    ess_of_weights,
    particle_filter,
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
    from driftlab.simulate import euler_advance

    det = DiffusionSpec(drift=lambda x, th: -0.5 * x,
                        diffusion=lambda x, th: np.zeros_like(x),
                        theta=[0.0], x0=[2.0])
    substeps, n_obs = 20, 20
    grid = TimeGrid(0.0, 0.25 * (n_obs - 1), substeps * (n_obs - 1))
    fine = np.empty((grid.n_steps + 1, 1))
    euler_advance(det, det.x0, grid.dt, np.zeros((grid.n_steps, 1)), out=fine)
    times = grid.times()[::substeps]
    x = fine[::substeps, 0]
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


@settings(max_examples=12, derandomize=True)
@given(gamma=st.floats(0.2, 3.0), beta_bar=st.floats(-1.0, 1.0), sigma=st.floats(0.2, 1.5),
       scale=st.floats(0.2, 1.0))
def test_mean_loglik_within_three_sd_of_kalman(gamma, beta_bar, sigma, scale):
    p = OuParams(gamma=gamma, beta_bar=beta_bar, sigma=sigma, b0=beta_bar)
    n = 30
    grid = TimeGrid(0.0, 0.1 * (n - 1), n - 1)
    latent = simulate_ou(p, grid, (93, "path")).scalar_values()
    obs = NoisyObservationSet(times=grid.times(),
                              y_values=latent + scale * stream(93, "noise").standard_normal(n))
    om = ObservationModel(kind="gaussian", scale=scale)
    exact = kalman_loglik(ou_to_ssm(p, om, obs.times), obs)
    lls = [particle_filter(ou_spec(p), om, obs, 300, substeps=4, seed=(93, k)).loglik
           for k in range(8)]
    assert abs(np.mean(lls) - exact) <= 3 * np.std(lls, ddof=1)


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


def test_ess_of_uniform_weights_is_the_particle_count():
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


def test_kernel_returning_nan_raises_at_its_step():
    # a discrete kernel that turns one particle NaN on the gap into
    # observation 3 stops the filter there, as an Euler propagation does
    def propagate(states, rng):
        propagate.calls += 1
        out = states + rng.standard_normal(states.shape)
        if propagate.calls == 3:
            out[0] = np.nan
        return out

    propagate.calls = 0
    kernel = DiscreteKernel(x0=[0.0], propagate=propagate)
    obs = NoisyObservationSet(times=np.arange(5.0), y_values=np.zeros(5))
    om = ObservationModel(kind="gaussian", scale=1.0)
    with pytest.raises(SimulationDivergedError) as err:
        particle_filter(kernel, om, obs, 20, seed=0)
    assert err.value.step == 3


def _profile(models, om, obs, n_particles, substeps, seed):
    # the same seed at every candidate: differences between candidates are
    # not drowned by resampling noise
    return np.array([particle_filter(m, om, obs, n_particles, substeps=substeps, seed=seed).loglik
                     for m in models])


def test_profile_search_peaks_near_truth():
    obs, _ = _ou_dataset(scale=0.3, key=97, n=200)
    om = ObservationModel(kind="gaussian", scale=0.3)
    gammas = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    models = [ou_spec(OuParams(gamma=g, beta_bar=0.0, sigma=0.5, b0=0.0))
              for g in gammas]
    profile = _profile(models, om, obs, 1000, substeps=4, seed=6)
    assert gammas[np.argmax(profile)] in (0.5, 1.0, 2.0)
    # fixed seed per candidate: repeated profiles are identical
    again = _profile(models, om, obs, 1000, substeps=4, seed=6)
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


def _digest(res) -> str:
    return hashlib.sha256(json.dumps(res.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_filter_outputs_keep_their_pinned_digests():
    # the per-step streams (seed, "prop", i) and (seed, "resample", i) come
    # from keys derived once per filter; these digests were taken when each
    # step still built its own stream, so any change to a draw shows here.
    # Both filters resample (11 and 6 times), so both stream families count.
    ou = OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5, b0=0.1)
    times = 0.25 * np.arange(30)
    obs = NoisyObservationSet(times=times, y_values=np.sin(times) + 0.1 * np.cos(3 * times))
    om = ObservationModel(kind="gaussian", scale=0.3)
    res = particle_filter(ou_spec(ou), om, obs, n_particles=200, substeps=4, seed=(5, "pf"))
    assert len(res.resample_steps) == 11
    assert _digest(res) == "d5075e48a8c9f45278ce600d8a692d47c867898744e1ba5b9ecabbf5f7e3fc22"

    kernel, om_t = preset_integrated_rw_t(0.1, 0.5, 3.0)
    t = np.arange(25, dtype=float)
    y = 0.05 * t**1.5
    y[12] += 5.0
    res = particle_filter(kernel, om_t, NoisyObservationSet(times=t, y_values=y), 300, seed=9)
    assert len(res.resample_steps) == 6
    assert _digest(res) == "8f76898a504881bbef2b997cd7d720311ca486bab89a82012a00547353e9fdd8"


ONE_MEAN = ObservationModel(kind="gaussian", scale=1.0, link=lambda s: s[..., 0])
COLUMN = ObservationModel(kind="gaussian", scale=1.0, link=lambda s: s[..., [0]])


def test_link_with_one_mean_per_state_scores_each_state():
    # a link returning shape (n,) gives one mean per state, not one row of n
    # means broadcast against every state
    states = np.array([[0.0], [1.0], [2.0]])
    got = ONE_MEAN.loglik(0.0, states)
    assert got == pytest.approx([-0.919, -1.419, -2.919], abs=1e-3)
    assert np.array_equal(got, COLUMN.loglik(0.0, states))
    y = np.array([0.5, -1.0, 2.5])
    assert np.array_equal(ONE_MEAN.loglik_series(y, states), COLUMN.loglik_series(y, states))


@pytest.mark.parametrize("link", [
    lambda s: s[:2, 0],  # too few means
    lambda s: s[..., 0][None, :],  # one row for all states
    lambda s: np.float64(1.0),  # one scalar
    lambda s: s[..., None],  # three dimensions
], ids=["short", "row", "scalar", "3d"])
def test_link_of_another_shape_raises(link):
    om = ObservationModel(kind="gaussian", scale=1.0, link=link)
    states = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(DataFormatError, match="not \\(n_states, p\\)"):
        om.loglik(0.0, states)
    with pytest.raises(DataFormatError):
        om.loglik_series(np.zeros(3), states)


def test_filter_with_one_mean_per_state_link_equals_column_link():
    obs, _ = _ou_dataset(0.3, 17, n=30)
    runs = [particle_filter(ou_spec(OU), om, obs, n_particles=200, seed=4).to_json_dict()
            for om in (ONE_MEAN, COLUMN)]
    assert runs[0] == runs[1]


def test_propagation_of_the_wrong_shape_raises_at_its_step():
    # a kernel returning (n_particles,) made every particle one state of the
    # observation link and scored each with the sum over all of them; an
    # Euler drift returning (n,) broadcasts the states to (n, n)
    obs = NoisyObservationSet(times=np.arange(10.0), y_values=0.1 * np.arange(10.0))
    om = ObservationModel(kind="gaussian", scale=0.5)
    flat = DiscreteKernel(x0=[0.0],
                          propagate=lambda s, rng: np.ravel(s) + rng.standard_normal(len(s)))
    with pytest.raises(DataFormatError, match=r"step 1 gave states of shape \(200,\)"):
        particle_filter(flat, om, obs, 200, seed=1)
    column = DiscreteKernel(x0=[0.0], propagate=lambda s, rng: s + rng.standard_normal(s.shape))
    assert np.isfinite(particle_filter(column, om, obs, 200, seed=1).loglik)
    flat_drift = DiffusionSpec(drift=lambda x, th: -x[:, 0], diffusion=lambda x, th: 0.5 + 0.0 * x,
                               theta=[0.0], x0=[0.0])
    with pytest.raises(DataFormatError, match=r"step 1 gave states of shape \(200, 200\)"):
        particle_filter(flat_drift, om, obs, 200, seed=1)
