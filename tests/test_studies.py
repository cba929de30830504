import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from mbweibull import (
    BivariateWeibull,
    GaussianCopulaParams,
    GfgmParams,
    MbwParams,
    RectUniform,
    StudyConfig,
    WeibullParams,
    bias_mse,
    coverage_probability,
    fit_mbw,
    run_study,
)
from mbweibull import studies
from mbweibull.errors import ConvergenceError, DomainError
from mbweibull.fitting import FitResult
from mbweibull.mixture import PARAM_NAMES, param_dict

TRUTH = MbwParams(
    base=BivariateWeibull(
        WeibullParams(4.0, 1.5), WeibullParams(3.5, 5.0), GfgmParams(0.6)
    ),
    rect=RectUniform(0.0, 0.0, 0.1),
    p=0.3,
)


def _with_copula(copula):
    return replace(TRUTH, base=replace(TRUTH.base, copula=copula))


class TestBiasMse:
    def test_exact_estimates(self):
        assert bias_mse([4, 4, 4], 4.0) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        bias, mse = bias_mse([3.0, 5.0], 4.0)
        assert bias == 0.0
        assert mse == 1.0

    def test_single_estimate(self):
        bias, mse = bias_mse([4.0823], 4.0)
        assert bias == pytest.approx(0.0823)
        assert mse == pytest.approx(0.0823**2)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bias_mse([], 1.0)


class TestCoverage:
    def test_all_cover(self):
        assert coverage_probability([(-np.inf, np.inf)] * 5, 0.3) == 1.0

    def test_none_cover(self):
        assert coverage_probability([(1, 2), (3, 4)], 0.0) == 0.0

    def test_fraction(self):
        ivs = [(0, 1), (2, 3), (0.2, 0.4), (0.29, 0.31)]
        assert coverage_probability(ivs, 0.3) == 0.75

    def test_endpoint_inclusive(self):
        assert coverage_probability([(0.3, 0.5)], 0.3) == 1.0


class TestRunStudy:
    def test_single_replicate_report(self):
        cfg = StudyConfig(true_params=TRUTH, sample_sizes=(100,), n_replicates=1)
        rep = run_study(cfg)[100]
        assert rep.n_replicates == 1
        assert rep.n_failures == 0
        for row in rep.rows.values():
            assert row["BSE"] == 0.0
            assert row["BCI_lo"] == row["BCI_hi"] == row["SampleMean"]

    def test_deterministic_and_worker_independent(self):
        cfg1 = StudyConfig(true_params=TRUTH, sample_sizes=(100,), n_replicates=6)
        cfg2 = StudyConfig(
            true_params=TRUTH, sample_sizes=(100,), n_replicates=6, workers=2
        )
        a = run_study(cfg1)[100]
        b = run_study(cfg2)[100]
        # a sorted dump compares NaN entries, which == on the dicts would not
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)
        assert a.to_csv() == b.to_csv()

    def test_mse_dominates_squared_bias(self):
        cfg = StudyConfig(true_params=TRUTH, sample_sizes=(100,), n_replicates=10)
        rep = run_study(cfg)[100]
        for row in rep.rows.values():
            assert row["MSE"] >= row["Bias"] ** 2 - 1e-12

    def test_csv_layout(self):
        cfg = StudyConfig(true_params=TRUTH, sample_sizes=(100,), n_replicates=2)
        text = run_study(cfg)[100].to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "Parameter,SampleMean,CP,BSE,BCI_lo,BCI_hi,MSE,Bias"
        assert len(lines) == 8
        assert [line.split(",")[0] for line in lines[1:]] == [
            "alpha1", "beta1", "alpha2", "beta2", "rho", "d", "p",
        ]

    def test_fitter_bug_propagates(self, monkeypatch):
        def fit_mbw(*args, **kwargs):
            raise TypeError("bug in the fitter")

        monkeypatch.setattr(studies, "fit_mbw", fit_mbw)
        cfg = StudyConfig(true_params=TRUTH, sample_sizes=(100,), n_replicates=2)
        with pytest.raises(TypeError):
            run_study(cfg)

    @staticmethod
    def _nonfinite_first(monkeypatch, k):
        # replace the fit by the truth with unit SEs; the first k fits
        # report a non-finite log-likelihood
        calls = []

        def fit_mbw(data, **kwargs):
            calls.append(None)
            estimates = {nm: param_dict(TRUTH)[nm] for nm in PARAM_NAMES}
            return FitResult(
                model="m3", estimates=estimates, k=7,
                loglik=-np.inf if len(calls) <= k else -1.0,
                std_errors=dict.fromkeys(estimates, 1.0), diagnostics={"n_c1": 5},
            )

        monkeypatch.setattr(studies, "fit_mbw", fit_mbw)
        return StudyConfig(true_params=TRUTH, sample_sizes=(20,), n_replicates=10)

    def test_a_tenth_of_failed_replicates_is_tolerated(self, monkeypatch):
        rep = run_study(self._nonfinite_first(monkeypatch, 1))[20]
        assert rep.n_failures == 1

    def test_more_than_a_tenth_failed_raises(self, monkeypatch):
        with pytest.raises(ConvergenceError, match="2/10 replicates failed at n=20"):
            run_study(self._nonfinite_first(monkeypatch, 2))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            StudyConfig(true_params=TRUTH, n_replicates=0)
        with pytest.raises(DomainError):
            StudyConfig(true_params=TRUTH, level=1.5)

    @pytest.mark.parametrize("setting", [
        {"sample_sizes": (100, 9)},
        {"sample_sizes": (100, 200, 100)},
        {"min_pts": 0},
        {"eps_by_n": {100: 0.0}},
        {"eps_by_n": {100: -0.45}},
        {"eps_by_n": {100: float("nan")}},
        {"workers": 0},
        {"workers": -3},
    ], ids=["size-9", "size-repeated", "min-pts-0", "eps-0", "eps-negative", "eps-nan", "workers-0",
            "workers-negative"])
    def test_config_rejects_settings_no_replicate_survives(self, setting):
        with pytest.raises(DomainError):
            StudyConfig(true_params=TRUTH, **setting)

    def test_smallest_sample_size_is_fit_mbws(self):
        # the study accepts the smallest sample fit_mbw accepts, and no smaller
        StudyConfig(true_params=TRUTH, sample_sizes=(10,), min_pts=1, workers=1)
        with pytest.raises(DomainError, match="at least 10 observations"):
            fit_mbw(np.ones((9, 2)))


class TestFittedCopula:
    @staticmethod
    def _fitted(monkeypatch, truth):
        # the copula settings of every fit the study runs
        seen = []

        def spy(data, **kwargs):
            seen.append((kwargs["copula_family"], kwargs["a"], kwargs["b"]))
            return fit_mbw(data, **kwargs)

        monkeypatch.setattr(studies, "fit_mbw", spy)
        run_study(StudyConfig(true_params=truth, sample_sizes=(100,), n_replicates=2))
        return seen

    def test_gaussian_truth_fits_gaussian(self, monkeypatch):
        seen = self._fitted(monkeypatch, _with_copula(GaussianCopulaParams(0.6)))
        assert [family for family, _, _ in seen] == ["gaussian"] * 2

    def test_gfgm_truth_fits_its_exponents(self, monkeypatch):
        seen = self._fitted(monkeypatch, _with_copula(GfgmParams(0.6, a=2.0, b=3.0)))
        assert seen == [("gfgm", 2.0, 3.0)] * 2

    def test_family_other_than_truths_rejected(self, monkeypatch):
        runs = []
        monkeypatch.setattr(studies, "sample_mbw", lambda *a: runs.append(a))
        with pytest.raises(DomainError, match="'gfgm' is not the truth's 'gaussian'"):
            run_study(StudyConfig(
                true_params=_with_copula(GaussianCopulaParams(0.6)), copula_family="gfgm",
            ))
        assert runs == []
