import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from cmacg import (
    CheckResult,
    CmacgParams,
    ComplexMatrixNormalParams,
    InsufficientSample,
    ManifoldDims,
    ValidationError,
    corollary_check,
    general_class_check,
    ks_two_sample,
    make_rng,
    normal_covariance_check,
    normalization_check,
    run_suite,
    unitary_invariance_check,
)
import cmacg.verify as verify
from conftest import random_frame, random_hpd, random_unitary


def diag_params(entries, r):
    return CmacgParams(np.diag(entries).astype(complex), r)


def pooled_search_statistic(x, y):
    """The KS statistic from both empirical CDFs searched at every pooled point."""
    xs, ys = np.sort(x), np.sort(y)
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    return float(np.abs(cdf_x - cdf_y).max())


class TestKsTwoSample:
    @pytest.mark.parametrize(
        "case", ["rounded_normals", "all_equal", "disjoint", "interleaved", "unequal_sizes"]
    )
    def test_statistic_bitwise_equal_to_pooled_search(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(40):
            if case == "rounded_normals":
                x = np.round(rng.standard_normal(300), 1)
                y = np.round(rng.standard_normal(300) + rng.uniform(0, 0.3), 1)
            elif case == "all_equal":
                x = np.full(200, 1.5)
                y = np.full(200, rng.choice([1.5, 2.0]))
            elif case == "disjoint":
                x = np.round(rng.uniform(0, 1, 250), 2)
                y = np.round(rng.uniform(1, 2, 150), 2)
            elif case == "interleaved":
                grid = np.arange(400.0)
                x, y = grid[::2], grid[1::2] + rng.integers(0, 2) * rng.choice([-1.0, 0.0])
            else:
                x = rng.integers(0, 5, 120).astype(float)
                y = rng.integers(0, 7, 1000).astype(float)
            assert ks_two_sample(x, y).statistic == pooled_search_statistic(x, y)

    def test_identical_samples(self):
        x = np.linspace(0.0, 1.0, 500)
        result = ks_two_sample(x, x.copy())
        assert result.statistic == 0.0
        assert result.passed

    def test_disjoint_supports(self):
        x = np.arange(1, 1001) / 1000.0
        result = ks_two_sample(x, x + 10.0)
        assert result.statistic == 1.0
        assert not result.passed

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            ks_two_sample(np.arange(50), np.arange(500))

    def test_rejects_nonfinite(self):
        x = np.linspace(0, 1, 200)
        y = x.copy()
        y[0] = np.nan
        with pytest.raises(ValidationError):
            ks_two_sample(x, y)

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.standard_normal(300)
            y = rng.standard_normal(400) + 0.2
            ours = ks_two_sample(x, y).statistic
            theirs = scipy.stats.ks_2samp(x, y, method="asymp").statistic
            assert ours == pytest.approx(theirs, abs=1e-14)

    def test_critical_value_constant(self):
        # the asymptotic 1% coefficient is 1.628 to three decimals
        result = ks_two_sample(np.arange(1000.0), np.arange(1000.0))
        coefficient = result.threshold / np.sqrt(2000.0 / (1000.0 * 1000.0))
        assert coefficient == pytest.approx(1.628, abs=5e-4)

    def test_null_calibration_repeated_seeds(self):
        # at the asymptotic 1% critical value the null pass rate is >= 99%
        rng = np.random.default_rng(0)
        n_reps, n = 400, 10000
        passes = sum(
            ks_two_sample(rng.random(n), rng.random(n)).passed for _ in range(n_reps)
        )
        assert passes / n_reps >= 0.99


class TestNormalizationCheck:
    def test_identity_parameter_exact(self):
        params = CmacgParams.uniform(ManifoldDims(3, 2))
        report = normalization_check(params, 2000, make_rng(1))
        assert report.passed
        assert abs(report.details["estimate"] - 1.0) <= 1e-12
        assert report.details["std_error"] <= 1e-12

    def test_square_frame_exact_at_small_n(self):
        params = CmacgParams(random_hpd(np.random.default_rng(24), 2, 10.0), 2)
        report = normalization_check(params, 1000, make_rng(2))
        assert report.passed
        assert abs(report.details["estimate"] - 1.0) <= 1e-12
        assert report.details["std_error"] <= 1e-12

    def test_stochastic_case(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        report = normalization_check(params, 200000, make_rng(3))
        assert report.passed
        assert abs(report.details["estimate"] - 1.0) <= 4.0 * report.details["std_error"]

    def test_deterministic_given_seed(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        first = normalization_check(params, 20000, make_rng(4))
        second = normalization_check(params, 20000, make_rng(4))
        assert first == second


class TestUnitaryInvarianceCheck:
    def test_passes_for_uniform_parameter(self):
        params = CmacgParams.uniform(ManifoldDims(3, 2))
        result = unitary_invariance_check(params, 50000, make_rng(5))
        assert result.passed

    def test_passes_for_generic_parameter(self):
        params = diag_params([4.0, 2.0, 1.0], 2)
        result = unitary_invariance_check(params, 20000, make_rng(6))
        assert result.passed

    def test_identity_unitary_statistic_zero(self):
        params = diag_params([2.0, 1.0], 1)
        result = unitary_invariance_check(
            params, 10000, make_rng(7), unitary=np.eye(1, dtype=complex)
        )
        assert result.statistic == 0.0

    def test_projection_functional_identity_pointwise(self):
        # the projection functional is right-invariant draw by draw
        rng = make_rng(8)
        params = diag_params([3.0, 1.0], 1)
        frames = verify.dist.sample_cmacg_batch(params, 5000, rng)
        q = random_unitary(np.random.default_rng(25), 1)
        weight = verify._random_hermitian(2, rng)
        base = verify._functionals(frames, [weight])[0]
        rotated = verify._functionals(frames @ q, [weight])[0]
        assert np.abs(base - rotated).max() <= 1e-10 * max(1.0, np.abs(base).max())

    def test_insufficient_sample(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(InsufficientSample):
            unitary_invariance_check(params, 5000, make_rng(9))

    @pytest.mark.parametrize("m", [1, 3])
    def test_single_column_passes_on_correct_code(self, m):
        # at r = 1 the bilinear functional is a scalar multiple of the
        # projection one, so the pointwise subtest is the whole check
        params = diag_params(np.arange(m, 0, -1.0), 1)
        for seed in range(20):
            result = unitary_invariance_check(params, 10000, make_rng(seed))
            assert result.passed, (seed, result)
            assert result.details["functional_description"].startswith("pointwise identity")

    @pytest.mark.parametrize("m", [1, 3])
    def test_single_column_non_unitary_fails_pointwise(self, m):
        params = diag_params(np.arange(m, 0, -1.0), 1)
        result = unitary_invariance_check(
            params, 10000, make_rng(40), unitary=np.array([[1.01]])
        )
        assert not result.passed
        assert result.details["functional_description"].startswith("pointwise identity")


class TestCorollaryCheck:
    def test_identity_transform(self):
        params = diag_params([2.0, 1.0], 1)
        result = corollary_check(params, np.eye(2), 20000, make_rng(10))
        assert result.passed

    def test_diagonal_transform_three_dims(self):
        params = CmacgParams.uniform(ManifoldDims(3, 1))
        result = corollary_check(params, np.diag([2.0, 1.0, 1.0]), 50000, make_rng(11))
        assert result.passed

    def test_randomized_pair(self):
        rng = np.random.default_rng(26)
        params = CmacgParams(random_hpd(rng, 2, 5.0), 1)
        b = np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        result = corollary_check(params, b, 20000, make_rng(12))
        assert result.passed

    def test_scalar_transform_scale_indeterminacy(self):
        params = diag_params([3.0, 1.0], 1)
        result = corollary_check(params, 7.0 * np.eye(2), 20000, make_rng(13))
        assert result.passed

    def test_insufficient_sample(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(InsufficientSample):
            corollary_check(params, np.eye(2), 500, make_rng(14))


class TestGeneralClassCheck:
    def test_degenerate_mixture(self):
        params = diag_params([2.0, 1.0], 1)
        result = general_class_check(params, 20000, make_rng(15), mixture_shape=None)
        assert result.passed

    def test_gamma_mixture_uniform_case(self):
        params = CmacgParams.uniform(ManifoldDims(2, 1))
        result = general_class_check(params, 50000, make_rng(16))
        assert result.passed

    def test_gamma_mixture_generic_parameter(self):
        params = diag_params([2.0, 1.0], 1)
        result = general_class_check(params, 50000, make_rng(17))
        assert result.passed

    def test_rejects_bad_mixture(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(ValidationError):
            general_class_check(params, 20000, make_rng(18), mixture_shape=-1.0)


class TestNormalCovarianceCheck:
    def test_identity_parameter(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        report = normal_covariance_check(params, 50000, make_rng(19))
        assert report.passed
        assert report.statistic <= 4.0

    def test_complex_parameter(self):
        params = ComplexMatrixNormalParams(np.array([[2.0, 1j], [-1j, 2.0]]), 1)
        report = normal_covariance_check(params, 50000, make_rng(20))
        assert report.passed

    def test_small_sample_rejected(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        with pytest.raises(InsufficientSample):
            normal_covariance_check(params, 1000, make_rng(21))


class TestFrameFunctionals:
    """The one functional kernel and the projection moments, against explicit forms."""

    @pytest.mark.parametrize("layout", ["contiguous", "every_other", "right_multiplied"])
    @pytest.mark.parametrize("m_extra", [0, 1, None])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_functional_matches_trace(self, r, m_extra, layout):
        m = 12 if m_extra is None else r + m_extra
        rng = np.random.default_rng(100 * r + m)
        frames = np.stack([random_frame(rng, m, r) for _ in range(40)])
        if layout == "every_other":
            frames = frames[::2]
        elif layout == "right_multiplied":
            frames = frames @ random_unitary(rng, r)
        left = verify._random_hermitian(m, rng)
        right = verify._random_hermitian(r, rng)
        values = verify._functionals(frames, [left], [right])[0]
        expected = [np.trace(left @ h @ right @ h.conj().T).real for h in frames]
        assert values.shape == (len(frames),)
        assert np.abs(values - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("with_rights", [True, False])
    @pytest.mark.parametrize("m,r", [(3, 2), (5, 1), (12, 4)])
    def test_functionals_match_trace(self, m, r, with_rights):
        rng = np.random.default_rng(7 * m + r)
        frames = np.stack([random_frame(rng, m, r) for _ in range(30)])
        lefts = [verify._random_hermitian(m, rng) for _ in range(3)]
        rights = [verify._random_hermitian(r, rng) for _ in range(3)] if with_rights else None
        values = verify._functionals(frames, lefts, rights)
        expected = [
            [np.trace(a @ h @ b @ h.conj().T).real for h in frames]
            for a, b in zip(lefts, rights or [np.eye(r)] * 3)
        ]
        assert values.shape == (3, 30)
        assert np.abs(values - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        # a sample laid out once reads the same, bit for bit
        np.testing.assert_array_equal(
            verify._functionals(verify._laid_out(frames), lefts, rights), values
        )

    @pytest.mark.parametrize("m,r", [(3, 2), (12, 4)])
    def test_flat_right_product_bitwise_equal_to_batched(self, m, r):
        # the rotation in unitary_invariance: one (m n, r) @ (r, r) product
        n = 2000
        frames = verify.dist.sample_cmacg_batch(
            CmacgParams(random_hpd(np.random.default_rng(m), m, 20.0), r), n, make_rng(45)
        )
        unitary = random_unitary(np.random.default_rng(r), r)
        columns = verify.linalg._frame_columns(verify._laid_out(frames))
        flat = (columns.reshape(m * n, r) @ unitary).reshape(m, n, r).transpose(1, 0, 2)
        np.testing.assert_array_equal(flat, frames @ unitary)

    def test_unitary_invariance_memory_below_five_stacks(self):
        # the sample is kept laid out, so every product is released before
        # the next: with two products alive at once the peak reads 5.7 stacks
        m, r, n = 3, 2, 50000
        tracemalloc.start()
        try:
            result = unitary_invariance_check(diag_params([3.0, 2.0, 1.0], r), n, make_rng(46))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.statistic >= 0.0
        assert peak < 5 * n * m * r * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("m,r", [(3, 2), (5, 1), (12, 4), (2, 2), (4, 4)])
    def test_projection_moments_match_explicit_projections(self, m, r):
        frames = verify.dist.sample_cmacg_batch(
            CmacgParams(random_hpd(np.random.default_rng(m + r), m, 20.0), r), 2000, make_rng(41)
        )
        mean, variance = verify._projection_moments(frames)
        proj = np.einsum("nir,njr->nij", frames, frames.conj())
        expected = (proj.real.var(axis=0, ddof=1) + proj.imag.var(axis=0, ddof=1)).sum()
        assert np.abs(mean - proj.mean(axis=0)).max() <= 1e-13
        if m > r:
            assert variance == pytest.approx(expected, rel=1e-9)
        else:
            # square frames: every projection is the identity
            assert math.isfinite(variance) and 0.0 <= variance <= 1e-12

    def test_corollary_memory_below_one_projection_stack(self):
        m, r, n = 24, 2, 10000
        params = diag_params(np.arange(m, 0, -1.0), r)
        transform = verify.default_transform(m, make_rng(42))
        tracemalloc.start()
        try:
            result = corollary_check(params, transform, n, make_rng(43))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.statistic >= 0.0
        assert peak < n * m * m * np.dtype(np.complex128).itemsize


class TestVerdictRules:
    """Each kind keeps its own rule where the statistic equals the threshold."""

    def test_normal_covariance_passes_at_equality(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        first = normal_covariance_check(params, 50000, make_rng(19))
        tied = normal_covariance_check(params, 50000, make_rng(19), k=first.statistic)
        assert tied.statistic == tied.threshold
        assert tied.kind == "verification_report" and tied.passed

    def test_normalization_passes_at_equality(self, monkeypatch):
        # unit density values: the statistic and the standard error are both 0
        monkeypatch.setattr(
            verify.dist, "cmacg_log_density_batch", lambda p, frames: np.zeros(len(frames))
        )
        monkeypatch.setattr(verify, "MEAN_CHECK_ATOL", 0.0)
        report = normalization_check(diag_params([3.0, 2.0, 1.0], 2), 100, make_rng(1))
        assert report.statistic == report.threshold == 0.0
        assert report.kind == "verification_report" and report.passed

    def test_two_sample_fails_at_equality(self, monkeypatch):
        monkeypatch.setattr(verify, "ks_critical_value", lambda n1, n2, level: 1.0)
        x = np.arange(1, 1001) / 1000.0
        result = ks_two_sample(x, x + 10.0)
        assert result.statistic == result.threshold == 1.0
        assert result.kind == "two_sample" and not result.passed

    def test_worst_subtest_takes_largest_margin_under_check_name(self):
        def subtest(name, statistic, threshold):
            verdict = "pass" if statistic < threshold else "fail"
            return CheckResult(name, "two_sample", statistic, threshold, verdict)

        subtests = [subtest("a", 1.0, 4.0), subtest("b", 0.9, 1.0), subtest("c", 0.5, 1.0)]
        worst = verify._worst_subtest("corollary", subtests, 20000)
        assert (worst.name, worst.kind, worst.statistic, worst.threshold, worst.verdict) == (
            "corollary", "two_sample", 0.9, 1.0, "pass"
        )
        assert worst.details == {
            "n1": 20000, "n2": 20000, "functional_description": "b; worst margin of 3 subtests"
        }
        # a zero threshold counts as an infinite margin
        zero = verify._worst_subtest("corollary", subtests + [subtest("z", 0.0, 0.0)], 20000)
        assert (zero.statistic, zero.threshold, zero.margin) == (0.0, 0.0, math.inf)
        assert not zero.passed


class TestRunSuite:
    def test_unknown_check_rejected(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(ValidationError, match="unknown checks"):
            run_suite(params, checks=("nonsense",))

    def test_reports_deterministic_and_lane_stable(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        full = run_suite(params, n=20000, seed=9, checks=("normalization", "unitary_invariance"))
        again = run_suite(params, n=20000, seed=9, checks=("normalization", "unitary_invariance"))
        assert full == again
        # a check reports identically whether run alone or within a suite
        alone = run_suite(params, n=20000, seed=9, checks=("unitary_invariance",))
        assert alone[0] == full[1]

    def test_default_suite_passes(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        results = run_suite(params, n=50000, seed=0)
        assert [name for name, _ in results] == list(verify.CHECK_NAMES)
        assert all(outcome.passed for _, outcome in results)
