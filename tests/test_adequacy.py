import hashlib
import json
import os

import numpy as np
import pytest

from driftlab.adequacy import (
    dataset_series,
    envelope_check,
    simulate_states_at,
    synthetic_replicates,
)
from driftlab.errors import IncompleteContextError
from driftlab.models import GbmParams, OuParams, TvGrowthParams, gbm_spec
from driftlab.movement import preset_integrated_rw_t
from driftlab.observe import NoisyObservationSet, ObservationModel, ObservationSet
from driftlab.parallel import map_replicates, thread_limit
from driftlab.rng import stream

TIMES = 0.1 * np.arange(51)
FITTED = GbmParams(beta=0.1, sigma=0.2, x0=1.0)


def test_zero_replicates_empty():
    assert synthetic_replicates(FITTED, TIMES, 0, seed=1) == []


def test_same_seed_identical_datasets():
    a = synthetic_replicates(FITTED, TIMES, 2, seed=5)
    b = synthetic_replicates(FITTED, TIMES, 2, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)
    assert not np.array_equal(a[0].values, a[1].values)


def test_gbm_replicate_endpoint_mean():
    reps = synthetic_replicates(FITTED, TIMES, 500, seed=9)
    ends = np.array([r.values[-1] for r in reps])
    target = np.exp(0.1 * 5.0)
    se = ends.std(ddof=1) / np.sqrt(len(ends))
    assert abs(ends.mean() - target) < 3 * se


def test_noisy_replicates_carry_observation_noise():
    om = ObservationModel(kind="gaussian", scale=0.3)
    reps = synthetic_replicates(OuParams(1.0, 0.0, 0.5, 0.0), TIMES, 3, seed=2, om=om)
    assert all(isinstance(r, NoisyObservationSet) for r in reps)


def test_discrete_kernel_requires_observation_model():
    kernel, om = preset_integrated_rw_t(0.1, 0.2, 4.0)
    with pytest.raises(IncompleteContextError):
        synthetic_replicates(kernel, TIMES, 5, seed=1)
    reps = synthetic_replicates(kernel, TIMES, 5, seed=1, om=om)
    assert len(reps) == 5


def test_tv_growth_replicates_positive():
    model = TvGrowthParams(gamma=1.0, beta_bar=0.1, sigma=0.2, b0=0.1, x0=1.0)
    reps = synthetic_replicates(model, TIMES, 5, seed=3)
    for r in reps:
        assert np.all(r.values > 0)


def test_diffusion_spec_states_are_every_20th_fine_euler_state():
    # irregular observation gaps, each split into 20 Euler substeps driven by
    # the same stream, in order
    times = np.concatenate([[0.0], np.cumsum(stream(16, "gaps").uniform(0.05, 0.3, 12))])
    spec = gbm_spec(FITTED)
    states = simulate_states_at(spec, times, stream(16, "euler"))
    z = stream(16, "euler").standard_normal((20 * 12, 1))
    x, fine = spec.x0, [spec.x0]
    for delta, zk in zip(np.repeat(np.diff(times) / 20, 20), z):
        x = x + spec.drift_at(x) * delta + spec.diffusion_at(x) * np.sqrt(delta) * zk
        fine.append(x)
    assert np.array_equal(states, np.array(fine)[::20])


def test_observed_replicate_inside_min_max_envelope():
    reps = synthetic_replicates(FITTED, TIMES, 40, seed=11)
    report = envelope_check(reps[7], reps)
    for s in report.statistics:
        assert s.syn_min - 1e-12 <= s.observed <= s.syn_max + 1e-12


def test_band_coverage_on_well_specified_data():
    # fresh data from the fitted model: expect ~10% of statistics flagged;
    # a single run of 5 statistics should flag at most 2
    observed = ObservationSet(
        times=TIMES, values=simulate_states_at(FITTED, TIMES, stream(13, "obs"))[:, 0])
    synthetic = synthetic_replicates(FITTED, TIMES, 200, seed=14)
    report = envelope_check(observed, synthetic)
    assert len(report.flagged) <= 2


def test_power_against_doubled_sigma():
    times = 0.01 * np.arange(101)
    wrong = GbmParams(beta=0.1, sigma=0.4, x0=1.0)
    fitted = GbmParams(beta=0.1, sigma=0.2, x0=1.0)
    hits = 0
    for trial in range(20):
        observed = ObservationSet(
            times=times,
            values=simulate_states_at(wrong, times, stream(15, "obs", trial))[:, 0])
        synthetic = synthetic_replicates(fitted, times, 50, seed=(15, "syn", trial))
        if "increment_sd" in envelope_check(observed, synthetic).flagged:
            hits += 1
    assert hits >= 18


def test_requires_twenty_replicates():
    reps = synthetic_replicates(FITTED, TIMES, 19, seed=1)
    with pytest.raises(ValueError):
        envelope_check(reps[0], reps)


def test_constant_statistic_reported_indeterminate():
    deterministic = GbmParams(beta=0.1, sigma=0.0, x0=1.0)
    reps = synthetic_replicates(deterministic, TIMES, 25, seed=4)
    observed = synthetic_replicates(GbmParams(0.2, 0.0, 1.0), TIMES, 1, seed=5)[0]
    report = envelope_check(observed, reps)
    by_name = {s.name: s for s in report.statistics}
    assert by_name["increment_sd"].indeterminate
    assert "increment_sd" not in report.flagged


def test_custom_statistic_registration():
    reps = synthetic_replicates(FITTED, TIMES, 25, seed=6)
    report = envelope_check(reps[0], reps, stats={"median": np.median, "min": np.min})
    assert [s.name for s in report.statistics] == ["median", "min"]


def test_report_json_shape():
    reps = synthetic_replicates(FITTED, TIMES, 25, seed=7)
    d = envelope_check(reps[0], reps).to_json_dict()
    assert d["n_replicates"] == 25
    assert {s["name"] for s in d["statistics"]} == {
        "mean_increment", "increment_sd", "lag1_increment_autocorr", "min", "max"}
    assert all("pass" in s for s in d["statistics"])


def test_thread_cap_does_not_change_results(monkeypatch):
    def one(r):
        return simulate_states_at(FITTED, TIMES, stream(21, "synthetic", r))

    monkeypatch.setenv("DRIFTLAB_THREADS", "1")
    serial = map_replicates(one, 24)
    monkeypatch.setenv("DRIFTLAB_THREADS", "3")
    threaded = map_replicates(one, 24)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
    assert not np.array_equal(serial[0], serial[1])


def test_thread_limit_is_one_without_env(monkeypatch):
    # the pool is opt-in: however many CPUs, no DRIFTLAB_THREADS means serial
    monkeypatch.delenv("DRIFTLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert thread_limit() == 1


def test_dataset_series_types():
    obs = ObservationSet(times=[0.0, 1.0], values=[1.0, 2.0])
    noisy = NoisyObservationSet(times=[0.0, 1.0], y_values=np.array([[1.0, 5.0],
                                                                     [2.0, 6.0]]))
    assert np.array_equal(dataset_series(obs), [1.0, 2.0])
    assert np.array_equal(dataset_series(noisy), [1.0, 2.0])


def test_synthetic_replicates_keep_their_pinned_digest():
    # replicate r's states and observation noise both come from the stream
    # (seed, "synthetic", r); the digest was taken when each replicate still
    # built that stream itself
    ou = OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5, b0=0.1)
    om = ObservationModel(kind="gaussian", scale=0.3)
    reps = synthetic_replicates(ou, 0.25 * np.arange(30), 6, seed=(3, "syn"), om=om)
    payload = json.dumps([[float(v) for v in r.y_values] for r in reps], sort_keys=True)
    assert (hashlib.sha256(payload.encode()).hexdigest()
            == "1ed410328c72e85820c4a47d9b99fb6b52b2c291557277e2d7b63802474807d3")
