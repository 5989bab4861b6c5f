import numpy as np
import pytest
from scipy.stats import ks_2samp, spearmanr

from mpvesd.ensembles import EntryLaw
from mpvesd.errors import InputError
from mpvesd.experiments import (
    ExperimentConfig,
    dims_for,
    resolve_jobs,
    run,
    run_conv_rate,
    run_expected_conv,
    run_rigidity,
    run_separable,
    run_signal_detect,
    run_spiked_vesd,
    sigma_diag_from_spectrum,
    sort_records,
    substream,
)

TINY_SCHEDULE = (24, 40, 64, 96, 140)


class TestPlumbing:
    def test_substream_determinism_and_independence(self):
        r1, s1 = substream(7, 11, 100, 3)
        r2, s2 = substream(7, 11, 100, 3)
        r3, s3 = substream(7, 11, 100, 4)
        a, b, c = r1.random(4), r2.random(4), r3.random(4)
        assert np.array_equal(a, b) and s1 == s2
        assert s3 != s1 and not np.array_equal(a, c)

    def test_sigma_diag_rounding(self):
        diag = sigma_diag_from_spectrum(((4.0, 0.5), (1.0, 0.5)), 7)
        assert len(diag) == 7
        assert sorted(set(diag.tolist()), reverse=True) == [4.0, 1.0]
        assert np.all(np.diff(diag) <= 0)

    def test_dims_for(self):
        assert dims_for(100, 0.5) == 200
        assert dims_for(100, 2.0) == 50

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.setenv("MPVESD_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(5) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(family="conv_rate", schedule=(100, 50))
        with pytest.raises(ValueError):
            ExperimentConfig(family="conv_rate", trials=0)

    def test_unknown_params_rejected(self):
        with pytest.raises(InputError, match="params: unknown keys") as err:
            ExperimentConfig(family="spiked_vesd",
                             params={"n": 50, "bogus": 1})
        assert "'n'" in str(err.value) and "'bogus'" in str(err.value)


#: every family at a size that runs in well under a second
TINY_CONFIGS = [
    ExperimentConfig(family="conv_rate", schedule=(24, 40), trials=2, seed=61),
    ExperimentConfig(family="expected_conv", schedule=(24, 40),
                     repetition_cap=6, seed=62),
    ExperimentConfig(family="signal_detect", trials=2, seed=63,
                     params={"M": 60, "k": 3}),
    ExperimentConfig(family="separable", trials=2, seed=64,
                     params={"M": 60, "N": 120, "block": 20}),
    ExperimentConfig(family="spiked_vesd", trials=2, seed=65,
                     params={"M": 60, "inner_reps": 2}),
    ExperimentConfig(family="locallaw", d=2.0, trials=2, seed=66,
                     params={"N": 40, "etas": [0.3]}),
    ExperimentConfig(family="rigidity", d=2.0, trials=3, seed=67,
                     params={"N": 40}),
]


@pytest.mark.parametrize("cfg", TINY_CONFIGS, ids=lambda c: c.family)
def test_worker_count_invariance(cfg):
    assert run(cfg, jobs=1).records == run(cfg, jobs=2).records


@pytest.fixture(scope="module")
def conv_result():
    cfg = ExperimentConfig(family="conv_rate", schedule=TINY_SCHEDULE,
                           d=0.5, trials=3, seed=13)
    return cfg, run_conv_rate(cfg, jobs=1)


class TestConvRate:
    def test_records_sorted_and_bounded(self, conv_result):
        _, res = conv_result
        assert res.records == sort_records(res.records)
        for fam, N, trial, seed, stat, value in res.records:
            if stat in ("ks_dist", "ks_mean"):
                assert 0.0 <= value <= 1.0

    def test_deterministic_rerun(self, conv_result):
        cfg, res = conv_result
        res2 = run_conv_rate(cfg, jobs=1)
        assert res.records == res2.records

    def test_parallel_worker_count_invariance(self, conv_result):
        cfg, res = conv_result
        res2 = run_conv_rate(cfg, jobs=2)
        assert res.records == res2.records

    def test_single_trial_determinism(self):
        cfg = ExperimentConfig(family="conv_rate", schedule=TINY_SCHEDULE,
                               d=0.5, trials=1, seed=5)
        a = run_conv_rate(cfg, jobs=1).records
        b = run_conv_rate(cfg, jobs=1).records
        assert a == b

    def test_distances_shrink_with_N(self, conv_result):
        _, res = conv_result
        means = res.extras["means"]
        assert means[TINY_SCHEDULE[0]] > means[TINY_SCHEDULE[-1]]


class TestExpectedConv:
    def test_small_run_and_slope_record(self):
        cfg = ExperimentConfig(family="expected_conv", schedule=TINY_SCHEDULE,
                               d=0.5, repetition_cap=40, seed=3)
        res = run_expected_conv(cfg, jobs=1)
        stats = {r[4] for r in res.records}
        assert "ks_mean_cdf" in stats and "mean_slope" in stats
        reps = [r[5] for r in res.records if r[4] == "repetitions"]
        assert all(v == 40.0 for v in reps)

    def test_single_repetition_degenerates_to_one_sample(self):
        cfg = ExperimentConfig(family="expected_conv", schedule=(30,), d=0.5,
                               repetition_cap=1, seed=4)
        res = run_expected_conv(cfg, jobs=1)
        vals = [r[5] for r in res.records if r[4] == "ks_mean_cdf"]
        assert len(vals) == 1 and 0.0 < vals[0] <= 1.0

    def test_averaged_cdf_monotone(self):
        # construction guarantees it: weights are nonnegative by design
        from mpvesd.vesd import WeightedStepCDF
        parts = [WeightedStepCDF.from_jumps([0.1 * k, 1.0 + k], [0.5, 0.5])
                 for k in range(4)]
        avg = WeightedStepCDF.average(parts)
        grid = np.linspace(-1, 6, 200)
        assert np.all(np.diff(avg(grid)) >= -1e-15)


class TestSignalDetect:
    def test_planted_coordinates_detected_small(self):
        cfg = ExperimentConfig(family="signal_detect", trials=3, seed=21,
                               params={"M": 300, "k": 8})
        res = run_signal_detect(cfg, jobs=1)
        assert all(h >= 6 for h in res.extras["hits"])

    def test_null_profile_flat(self):
        cfg = ExperimentConfig(family="signal_detect", trials=2, seed=22,
                               params={"M": 300, "k": 0})
        res = run_signal_detect(cfg, jobs=1)
        for prof in res.extras["profiles"]:
            assert prof.max() < 3.0 * np.median(prof)

    def test_amplitude_orders_peak_heights(self):
        cfg = ExperimentConfig(family="signal_detect", trials=4, seed=23,
                               params={"M": 400, "k": 8})
        res = run_signal_detect(cfg, jobs=1)
        amps_all, peaks_all = [], []
        for prof, (positions, amps) in zip(res.extras["profiles"],
                                           res.extras["planted"]):
            amps_all.extend(amps.tolist())
            peaks_all.extend(prof[positions].tolist())
        rho = spearmanr(amps_all, peaks_all).statistic
        assert rho > 0.5

    def test_null_profile_exchangeable(self):
        cfg = ExperimentConfig(family="signal_detect", trials=1, seed=24,
                               params={"M": 400, "k": 0})
        res = run_signal_detect(cfg, jobs=1)
        prof = res.extras["profiles"][0]
        half = len(prof) // 2
        p = ks_2samp(prof[:half], prof[half:]).pvalue
        assert p > 0.01


@pytest.fixture(scope="module")
def separable_result():
    # the paper's block size at the spec's desk-scale M
    cfg = ExperimentConfig(family="separable", trials=2, seed=31,
                           params={"M": 1000, "N": 2000, "a": 0.1,
                                   "block": 200})
    return run_separable(cfg, jobs=1)


class TestSeparable:

    def test_signal_blocks_clear_null(self, separable_result):
        null_median = separable_result.extras["null_median"]
        for prof in separable_result.extras["profiles"]:
            for b in range(5):
                assert prof[200 * b: 200 * (b + 1)].mean() > 2.0 * null_median

    def test_alternating_block_levels(self, separable_result):
        # +1 and -1 blocks form two separated level sets
        null_spread = []
        for prof in separable_result.extras["null_profiles"]:
            bm = [prof[200 * b: 200 * (b + 1)].mean() for b in range(5)]
            null_spread.append(max(bm) - min(bm))
        for prof, dA in zip(separable_result.extras["profiles"],
                            separable_result.extras["diag_As"]):
            plus = prof[dA > 0].mean()
            minus = prof[dA < 0].mean()
            assert abs(plus - minus) > 10.0 * max(null_spread)

    def test_null_exchangeability(self, separable_result):
        prof = separable_result.extras["null_profiles"][0]
        half = len(prof) // 2
        assert ks_2samp(prof[:half], prof[half:]).pvalue > 0.01

    def test_random_levels_rank_correlation(self):
        cfg = ExperimentConfig(family="separable", trials=3, seed=33,
                               params={"M": 400, "N": 800, "a": 0.1,
                                       "block": 80,
                                       "pattern": "random_levels"})
        res = run_separable(cfg, jobs=1)
        levels_abs, block_means = [], []
        for prof, levels in zip(res.extras["profiles"], res.extras["levels"]):
            for b, lvl in enumerate(levels):
                levels_abs.append(abs(lvl))
                block_means.append(prof[80 * b: 80 * (b + 1)].mean())
        rho = spearmanr(levels_abs, block_means).statistic
        assert rho > 0.5


class TestSpiked:
    def test_structure_small(self):
        cfg = ExperimentConfig(family="spiked_vesd", trials=2, seed=41,
                               params={"M": 300, "inner_reps": 4})
        res = run_spiked_vesd(cfg, jobs=1)
        assert len(res.extras["curves"]) == 2
        for curves in res.extras["curves"]:
            assert len(curves) == 5
            for c in curves:
                assert c.total == pytest.approx(1.0, abs=1e-10)
        law = res.extras["law"]
        lo, hi = law.edges[-1]
        assert lo < res.extras["E_star"] < hi


class TestLabFamilies:
    def test_rigidity_records(self):
        cfg = ExperimentConfig(family="rigidity", d=2.0, trials=8, seed=51,
                               params={"N": 120})
        res = run_rigidity(cfg, jobs=1)
        meds = [r[5] for r in res.records if r[4] == "median_max_scaled_dev"]
        assert len(meds) == 1 and meds[0] > 0

    @staticmethod
    def _rigidity(spectrum=((1.0, 1.0),), kind="gaussian"):
        cfg = ExperimentConfig(family="rigidity", d=2.0, trials=8, seed=51,
                               spectrum=spectrum, entry_law=EntryLaw(kind),
                               params={"N": 120})
        return run_rigidity(cfg, jobs=1)

    def test_rigidity_samples_configured_spectrum(self):
        # Sigma = 4 I scales both the sample and the law by 4
        base = self._rigidity().extras["maxima"]
        scaled = self._rigidity(((4.0, 1.0),)).extras["maxima"]
        np.testing.assert_allclose(scaled, 4.0 * np.array(base), rtol=1e-6)

    def test_rigidity_samples_configured_entry_law(self):
        assert self._rigidity(kind="rademacher").records \
            != self._rigidity().records

    def test_locallaw_records(self):
        cfg = ExperimentConfig(family="locallaw", d=2.0, trials=2, seed=52,
                               spectrum=((1.0, 1.0),),
                               params={"N": 80, "E": 1.0, "etas": [0.3]})
        res = run(cfg, jobs=1)
        stats = {r[4] for r in res.records}
        assert "averaged_m2_ratio" in stats
        assert all(np.isfinite(r[5]) for r in res.records)
