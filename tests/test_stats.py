"""Statistical test correctness, including the scipy reference oracle."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import alexandergovern as scipy_alexandergovern

from flens.core import GroupLabels
from flens.errors import DataError, NumericError
from flens.stats import (
    alexander_govern,
    chi_square_sf,
    per_query_similarity_tests,
)

# chi_square_sf against the regularized upper incomplete gamma: relative error
# where the oracle is a normal double, absolute error where it is (sub)zero.
ORACLE_FLOOR = 1e-300
REL_TOL = 1e-12
DFS = range(1, 65)

# Frozen from the independently coded scipy reference on the fixed instance
FROZEN_STATISTIC = 28.116217566937287
FROZEN_P_VALUE = 1.1424450635482175e-07
FIXED_GROUPS = ([0.10, 0.12, 0.11, 0.13, 0.09], [0.30, 0.31, 0.29, 0.32, 0.28])


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_exponential_tail_identity(self):
        # df = 2 reduces to exp(-x/2)
        assert chi_square_sf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)
        for x in (0.5, 1.0, 4.0, 10.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_normal_two_tail_identity(self):
        assert chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(NumericError, match="chi-square statistic must be nonnegative, got -0.1"):
            chi_square_sf(-0.1, 2)

    def test_bad_df(self):
        with pytest.raises(NumericError, match="degrees of freedom must be positive, got 0"):
            chi_square_sf(1.0, 0)

    def _assert_matches_oracle(self, xs, df):
        xs = np.asarray(xs, dtype=np.float64)
        ref = gammaincc(df / 2.0, xs / 2.0)
        got = np.array([chi_square_sf(float(x), df) for x in xs])
        assert np.all((got >= 0.0) & (got <= 1.0)), f"df={df}: result outside [0, 1]"
        normal = ref >= ORACLE_FLOOR
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert rel.max(initial=0.0) <= REL_TOL, f"df={df} x={xs[normal][rel.argmax()]}"
        assert np.abs(got[~normal] - ref[~normal]).max(initial=0.0) <= ORACLE_FLOOR, f"df={df}"

    def test_exactly_one_at_zero_for_every_df(self):
        for df in DFS:
            assert chi_square_sf(0.0, df) == 1.0

    def test_tiny_statistics_match_oracle(self):
        xs = np.geomspace(5e-324, 1e-3, 400)
        for df in DFS:
            self._assert_matches_oracle(xs, df)

    def test_grid_to_underflow_matches_oracle(self):
        # up to x = 2000 every df <= 64 has underflowed to zero in float64
        xs = np.linspace(1e-3, 2000.0, 1201)
        for df in DFS:
            self._assert_matches_oracle(xs, df)
        assert gammaincc(64 / 2.0, 2000.0 / 2.0) == 0.0

    def test_large_statistics_where_exp_minus_h_underflows(self):
        # A strongly biased audit gives such statistics; exp(-x/2) alone is
        # below the smallest double here, so the terms must be summed in logs.
        xs = np.linspace(1400.0, 1700.0, 601)
        for df in DFS:
            self._assert_matches_oracle(xs, df)

    def test_infinite_statistic_has_zero_tail(self):
        assert chi_square_sf(math.inf, 1) == 0.0
        assert chi_square_sf(math.inf, 4) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(NumericError, match="chi-square statistic must be nonnegative, got nan"):
            chi_square_sf(math.nan, 2)

    def test_complements_reference_cdf(self):
        from scipy.stats import chi2

        for df in (1, 2, 4, 6):
            for x in (0.01, 0.7, 3.3, 12.0, 40.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    1.0 - chi2.cdf(x, df), abs=1e-10
                )


class TestAlexanderGovern:
    def test_identical_groups(self):
        sample = [0.1, 0.5, 0.3, 0.9, 0.2]
        result = alexander_govern([sample, list(sample)])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_frozen_reference_instance(self):
        result = alexander_govern(FIXED_GROUPS)
        assert result.statistic == pytest.approx(FROZEN_STATISTIC, abs=1e-8)
        assert result.p_value == pytest.approx(FROZEN_P_VALUE, rel=1e-8)
        assert result.degrees_of_freedom == 1

    def test_against_scipy_on_seeded_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = int(rng.integers(2, 6))
            samples = [
                rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 3.0), size=int(rng.integers(5, 40)))
                for _ in range(p)
            ]
            ours = alexander_govern(samples)
            ref = scipy_alexandergovern(*samples)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-8)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-8)

    def test_location_invariance(self):
        rng = np.random.default_rng(5)
        samples = [rng.normal(size=20), rng.normal(loc=0.4, size=30), rng.normal(scale=2.0, size=25)]
        base = alexander_govern(samples).statistic
        shifted = alexander_govern([s + 7.5 for s in samples]).statistic
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        samples = [rng.normal(size=15), rng.normal(loc=1.0, size=20), rng.normal(scale=3.0, size=12)]
        base = alexander_govern(samples).statistic
        permuted = alexander_govern([samples[2], samples[0], samples[1]]).statistic
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_p_value_monotone_in_statistic(self):
        values = [chi_square_sf(x, 3) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_too_few_groups(self):
        with pytest.raises(DataError, match="need at least two groups of observations"):
            alexander_govern([[1.0, 2.0]])

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="group 0 has fewer than 2 observations"):
            alexander_govern([[1.0], [2.0, 3.0]])

    def test_zero_variance(self):
        with pytest.raises(DataError, match="group 0 sample has zero variance"):
            alexander_govern([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])

    def test_group_samples_type(self):
        # a tuple of arrays, as per_query_similarity_tests passes each query's groups
        samples = (np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        result = alexander_govern(samples)
        assert result.degrees_of_freedom == 1


class TestPerQueryTests:
    def test_matched_group_distributions_give_zero(self):
        # both groups see the same multiset of similarities per query
        base = np.array([0.1, 0.2, 0.3, 0.4])
        sims = np.vstack([np.concatenate([base, base]), np.concatenate([2 * base, 2 * base])])
        groups = GroupLabels([0] * 4 + [1] * 4, 2)
        results = per_query_similarity_tests(sims, groups)
        assert len(results) == 2
        for comparison in results:
            assert comparison.test.statistic == pytest.approx(0.0, abs=1e-12)
            assert comparison.test.p_value == pytest.approx(1.0, abs=1e-12)

    def test_planted_shift_is_detected(self):
        rng = np.random.default_rng(7)
        n_per = 1000
        group0 = rng.normal(loc=0.2, scale=0.02, size=n_per)
        group1 = rng.normal(loc=0.3, scale=0.02, size=n_per)
        sims = np.concatenate([group0, group1])[None, :]
        groups = GroupLabels([0] * n_per + [1] * n_per, 2)
        result = per_query_similarity_tests(sims, groups)[0]
        assert result.test.p_value < 1e-10

    def test_heatmap_scaling(self):
        sims = np.array([[0.20, 0.22, 0.17, 0.19]])
        groups = GroupLabels([0, 0, 1, 1], 2)
        comparison = per_query_similarity_tests(sims, groups)[0]
        assert comparison.group_mean_similarity[0] == pytest.approx(0.21)
        assert comparison.group_mean_similarity[1] == pytest.approx(0.18)
        assert comparison.abs_mean_diff_x100[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert comparison.abs_mean_diff_x100[1, 0] == pytest.approx(3.0, abs=1e-12)
        assert comparison.abs_mean_diff_x100[0, 0] == 0.0
