import copy
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats

from cmacg import (
    CheckResult,
    CmacgParams,
    ComplexMatrixNormalParams,
    DimensionMismatch,
    InsufficientSample,
    ManifoldDims,
    RankDeficient,
    ValidationError,
    corollary_check,
    general_class_check,
    hermitian_part,
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


def ks_inputs(monkeypatch, frames, chol_inv, seed, n_functionals=1):
    """What each exact-law subtest of ``frames`` hands to its KS: {functional: (J, n) array}."""
    real, seen = verify._ks_uniform, {}

    def recording(u, level, description):
        # a copy: the KS sorts the row it is handed in place
        functional = description[len("KS of "):description.index(" against")]
        seen.setdefault(functional, []).append(np.array(u))
        return real(u, level, description)

    monkeypatch.setattr(verify, "_ks_uniform", recording)
    verify._exact_law_subtests(frames, chol_inv, make_rng(seed), 0.01, n_functionals)
    monkeypatch.setattr(verify, "_ks_uniform", real)
    return {functional: np.array(values) for functional, values in seen.items()}


def explicit_ks_inputs(frames, seed, n_functionals=1):
    """The same values from trace forms Re tr(A H B H^H), A = e e^H and B = I or f f^H,
    and from e^H H f, frame by frame."""
    _, m, r = frames.shape
    rng = make_rng(seed)
    lefts, rights = (verify._unit_vectors(rng, n_functionals, dim) for dim in (m, r))
    pairs = list(zip(lefts, rights))
    values = {}
    if m > r:
        values["||H^H e||^2"] = [[verify._beta_cdf(
            np.trace(np.outer(e, e.conj()) @ h @ h.conj().T).real, r, m - r) for h in frames]
            for e in lefts]
    if r > 1:
        values["|e^H H f|^2"] = [[verify._beta_cdf(np.trace(
            np.outer(e, e.conj()) @ h @ np.outer(f, f.conj()) @ h.conj().T).real, 1, m - 1)
            for h in frames] for e, f in pairs]
    values["arg(e^H H f)"] = [[np.angle(e.conj() @ h @ f) / (2 * np.pi) + 0.5 for h in frames]
                              for e, f in pairs]
    return {functional: np.array(v) for functional, v in values.items()}


def assert_ks_inputs_close(recorded, expected, tol):
    assert recorded.keys() == expected.keys()
    for functional, values in recorded.items():
        gap = np.abs(values - expected[functional])
        if functional.startswith("arg"):
            gap = np.minimum(gap, 1.0 - gap)  # a phase next to pi may wrap
        assert gap.max() <= tol, functional


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

    def test_identity_unitary_statistic_zero(self, monkeypatch):
        # with the exact-law subtests taken out, the pointwise subtest is exact
        monkeypatch.setattr(verify, "_ks_subtests", lambda *args: [])
        params = diag_params([2.0, 1.0], 1)
        result = unitary_invariance_check(
            params, 10000, make_rng(7), unitary=np.eye(1, dtype=complex)
        )
        assert result.statistic == 0.0

    def test_projection_functional_identity_pointwise(self, monkeypatch):
        # the span functional ||H^H e||^2, as the exact-law subtests compute it after
        # whitening, is right-invariant draw by draw
        params = diag_params([3.0, 1.0], 1)
        frames = verify.dist.sample_cmacg_batch(params, 5000, make_rng(8))
        q = random_unitary(np.random.default_rng(25), 1)
        base, rotated = (ks_inputs(monkeypatch, sample, params.chol_inv, 8)["||H^H e||^2"]
                         for sample in (frames, frames @ q))
        assert np.abs(base - rotated).max() <= 1e-10 * max(1.0, np.abs(base).max())

    def test_insufficient_sample(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(InsufficientSample):
            unitary_invariance_check(params, 5000, make_rng(9))

    @pytest.mark.parametrize("m", [1, 3])
    def test_single_column_passes_on_correct_code(self, m):
        params = diag_params(np.arange(m, 0, -1.0), 1)
        for seed in range(20):
            result = unitary_invariance_check(params, 10000, make_rng(seed))
            assert result.passed, (seed, result)

    @pytest.mark.parametrize("m", [1, 3])
    def test_single_column_non_unitary_fails_pointwise(self, m):
        params = diag_params(np.arange(m, 0, -1.0), 1)
        result = unitary_invariance_check(
            params, 10000, make_rng(40), unitary=np.array([[1.01]])
        )
        assert not result.passed
        assert result.details["functional_description"].startswith("pointwise identity")

    @pytest.mark.parametrize("shape", [(3, 3), (2, 1)])
    def test_rejects_unitary_of_wrong_shape(self, shape):
        params = diag_params([3.0, 2.0, 1.0], 2)
        with pytest.raises(DimensionMismatch, match="unitary must be 2x2"):
            unitary_invariance_check(params, 10000, make_rng(47), unitary=np.eye(*shape))

    def test_rejects_non_finite_unitary(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        with pytest.raises(ValidationError, match="unitary contains NaN"):
            unitary_invariance_check(params, 10000, make_rng(47), unitary=np.diag([1.0, np.nan]))


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
    def test_gamma_mixture_uniform_case(self):
        params = CmacgParams.uniform(ManifoldDims(2, 1))
        result = general_class_check(params, 50000, make_rng(16))
        assert result.passed

    def test_gamma_mixture_generic_parameter(self):
        params = diag_params([2.0, 1.0], 1)
        result = general_class_check(params, 50000, make_rng(17))
        assert result.passed


class TestNormalCovarianceCheck:
    def test_identity_parameter(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        report = normal_covariance_check(params, 50000, make_rng(19))
        assert report.passed
        assert report.details["functional_description"].endswith("worst margin of 7 subtests")

    def test_complex_parameter(self):
        params = ComplexMatrixNormalParams(np.array([[2.0, 1j], [-1j, 2.0]]), 1)
        report = normal_covariance_check(params, 50000, make_rng(20))
        assert report.passed

    def test_small_sample_rejected(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        with pytest.raises(InsufficientSample):
            normal_covariance_check(params, 1000, make_rng(21))


class TestFrameFunctionals:
    """The functionals the exact-law subtests hand to their KS, against explicit forms."""

    @pytest.mark.parametrize("layout", ["contiguous", "every_other", "right_multiplied"])
    @pytest.mark.parametrize("m_extra", [0, 1, None])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_functional_matches_trace(self, monkeypatch, r, m_extra, layout):
        m = 12 if m_extra is None else r + m_extra
        rng = np.random.default_rng(100 * r + m)
        frames = np.stack([random_frame(rng, m, r) for _ in range(40)])
        if layout == "every_other":
            frames = frames[::2]
        elif layout == "right_multiplied":
            frames = frames @ random_unitary(rng, r)
        recorded = ks_inputs(monkeypatch, frames, np.eye(m), r + m)
        assert all(values.shape == (1, len(frames)) for values in recorded.values())
        assert_ks_inputs_close(recorded, explicit_ks_inputs(frames, r + m), 1e-12)

    @pytest.mark.parametrize("whitened", [True, False])
    @pytest.mark.parametrize("m,r", [(3, 2), (5, 1), (12, 4)])
    def test_functionals_match_trace(self, monkeypatch, m, r, whitened):
        # whitened: the subtests read the polar factor of L^{-1} H, here from an SVD
        rng = np.random.default_rng(7 * m + r)
        frames = np.stack([random_frame(rng, m, r) for _ in range(30)])
        chol_inv = CmacgParams(random_hpd(rng, m, 20.0), r).chol_inv if whitened else np.eye(m)
        u, _, vh = np.linalg.svd(chol_inv @ frames, full_matrices=False)
        recorded = ks_inputs(monkeypatch, frames, chol_inv, m, n_functionals=3)
        assert all(values.shape == (3, 30) for values in recorded.values())
        assert_ks_inputs_close(recorded, explicit_ks_inputs(u @ vh, m, n_functionals=3), 1e-12)
        # a sample laid out once reads the same, bit for bit
        laid_out = verify.linalg._frame_columns(frames).reshape(m, 30, r).transpose(1, 0, 2)
        again = ks_inputs(monkeypatch, laid_out, chol_inv, m, n_functionals=3)
        for functional, values in recorded.items():
            np.testing.assert_array_equal(again[functional], values)

    @pytest.mark.parametrize("m,r", [(3, 2), (12, 4)])
    def test_flat_right_product_bitwise_equal_to_batched(self, m, r):
        # the rotation in unitary_invariance: one (m n, r) @ (r, r) product
        n = 2000
        frames = verify.dist.sample_cmacg_batch(
            CmacgParams(random_hpd(np.random.default_rng(m), m, 20.0), r), n, make_rng(45)
        )
        unitary = random_unitary(np.random.default_rng(r), r)
        columns = verify.linalg._frame_columns(frames)
        flat = (columns.reshape(m * n, r) @ unitary).reshape(m, n, r).transpose(1, 0, 2)
        np.testing.assert_array_equal(flat, frames @ unitary)

    @pytest.mark.parametrize("m,r", [(3, 2), (5, 1), (12, 4), (2, 2), (4, 4)])
    def test_projection_moments_match_explicit_projections(self, monkeypatch, m, r):
        # ||H^H e||^2 = e^H (H H^H) e, draw by draw and in the mean; at m = r every
        # projection is the identity, the span functional the constant 1, and no
        # subtest is spent on it
        frames = verify.dist.sample_cmacg_batch(
            CmacgParams(random_hpd(np.random.default_rng(m + r), m, 20.0), r), 2000, make_rng(41)
        )
        lefts = verify._unit_vectors(make_rng(41), 3, m)
        proj = np.einsum("nir,njr->nij", frames, frames.conj())
        spans = np.einsum("ji,nik,jk->jn", lefts.conj(), proj, lefts).real
        recorded = ks_inputs(monkeypatch, frames, np.eye(m), 41, n_functionals=3)
        if m > r:
            expected = verify._beta_cdf(spans, r, m - r)
            assert np.abs(recorded["||H^H e||^2"] - expected).max() <= 1e-12
            means = recorded["||H^H e||^2"].mean(axis=1)
            assert np.abs(means - expected.mean(axis=1)).max() <= 1e-13
        else:
            assert "||H^H e||^2" not in recorded
            # up to the frames' own semi-unitarity residual
            assert np.abs(spans - 1.0).max() <= m * verify.linalg.SEMI_UNITARY_ATOL

    def test_unitary_invariance_memory_below_five_stacks(self):
        # the rotated sample is whitened in place, so no second copy of it
        # lives through the orientation: whitened into a new array while the
        # caller still holds it, the peak reads 5.3 stacks (4.3 in place)
        m, r, n = 3, 2, 50000
        tracemalloc.start()
        try:
            result = unitary_invariance_check(diag_params([3.0, 2.0, 1.0], r), n, make_rng(46))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.statistic >= 0.0
        assert peak < 5 * n * m * r * np.dtype(np.complex128).itemsize

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


class TestExactLaw:
    """The one-sample machinery: exact CDFs, the KS statistic and bound, and whitening."""

    def test_beta_cdf_matches_mpmath(self):
        # absolute error is what a KS statistic sees
        x = np.concatenate([[0.0, 1e-12, 1e-6, 1e-3], np.linspace(0.01, 0.99, 15),
                            [1 - 1e-3, 1 - 1e-6, 1 - 1e-12, 1.0]])
        worst = 0.0
        with mpmath.workdps(50):
            for a in range(1, 33):
                for b in range(1, 34 - a):
                    reference = [float(mpmath.betainc(a, b, 0, float(t), regularized=True))
                                 for t in x]
                    worst = max(worst, np.abs(verify._beta_cdf(x, a, b) - reference).max())
        assert worst <= 1e-14

    @pytest.mark.parametrize("m", [3, 1100])
    def test_beta_and_gamma_cdfs_match_mpmath_at_small_and_large_m(self, m):
        # at m = 1100 a binomial coefficient of Beta(4, m - 4) passes 1e308
        x = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(1e-3, 0.999, 40), [1.0]])
        y = np.concatenate([[0.0, 1e-9], np.linspace(0.01, 3.0 * m, 40), [10.0 * m]])
        tol = 1e-14 if m == 3 else 1e-12
        with mpmath.workdps(60):
            for a, b in ((1, m - 1), (min(4, m - 1), m - min(4, m - 1))):
                reference = [float(mpmath.betainc(a, b, 0, float(t), regularized=True)) for t in x]
                assert np.abs(verify._beta_cdf(x, a, b) - reference).max() <= tol
            for a in (1, m):
                reference = [float(mpmath.gammainc(a, 0, float(t), regularized=True)) for t in y]
                assert np.abs(verify._gamma_cdf(y, a) - reference).max() <= tol

    @pytest.mark.parametrize("decimals", [1, 2, 4, None])
    def test_ks_uniform_is_sup_over_jumps(self, decimals):
        rng = np.random.default_rng(48 + (decimals or 0))
        for n in (100, 257, 1000):
            u = rng.random(n) ** rng.uniform(0.8, 1.25)
            if decimals is not None:
                u = np.round(u, decimals)  # ties, and values at 0 and 1
            brute = 0.0
            for value in np.unique(u):
                below, upto = np.sum(u < value) / n, np.sum(u <= value) / n
                brute = max(brute, abs(upto - value), abs(value - below))
            result = verify._ks_uniform(u, 0.01, "")
            assert result.statistic == brute
            assert result.threshold == math.sqrt(math.log(2 / 0.01) / (2 * n))

    def test_ks_uniform_rejects_nonfinite(self):
        u = np.linspace(0.0, 1.0, 200)
        u[7] = np.nan
        with pytest.raises(ValidationError):
            verify._ks_uniform(u, 0.01, "")

    def test_whitened_draws_pass_and_unwhitened_fail(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        frames = verify.dist.sample_cmacg_batch(params, 20000, make_rng(50))
        verdicts = [
            [s.passed for s in verify._exact_law_subtests(frames, whitener, make_rng(51), 0.01, 3)]
            for whitener in (params.chol_inv, np.eye(3))
        ]
        assert all(verdicts[0])
        assert not all(verdicts[1])

    def test_flagged_whitened_row_raises(self, monkeypatch):
        # a whitened row has nothing to redraw
        real = verify.linalg._orientation_batch

        def flagging(z):
            frames, bad = real(z)
            bad[0] = True
            return frames, bad

        monkeypatch.setattr(verify.linalg, "_orientation_batch", flagging)
        with pytest.raises(RankDeficient, match="1 whitened frames"):
            corollary_check(diag_params([3.0, 2.0, 1.0], 2), np.eye(3), 10000, make_rng(52))

    @pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (6, 3), (3, 1), (12, 4)])
    def test_condition_edge(self, m, r):
        rng = np.random.default_rng(10 * m + r)
        params = CmacgParams(random_hpd(rng, m, 0.99e10), r)
        n = 10000
        sample = verify.dist.sample_cmacg_batch(params, n, make_rng(m))
        columns = verify.linalg._frame_columns(sample)
        whitened = (params.chol_inv @ columns).reshape(m, n, r).transpose(1, 0, 2)
        frames, bad = verify.linalg._orientation_batch(whitened)
        assert not bad.any()
        assert verify.linalg._semi_unitary_residual(frames).max() <= 1e-10
        # a unitary transform keeps the transformed parameter at the same condition
        results = [
            unitary_invariance_check(params, n, make_rng(0)),
            corollary_check(params, random_unitary(rng, m), n, make_rng(1)),
            general_class_check(params, n, make_rng(2)),
        ]
        assert all(result.passed for result in results), results


class TestMutationPower:
    """Each injected bug, and the check that catches it in every seed (m=3, r=2, n=50000)."""

    @staticmethod
    def failing(checks, n=50000, m=3, r=2, cov=None):
        params = diag_params(np.arange(m, 0, -1.0), r) if cov is None else CmacgParams(cov, r)
        return [[name for name, outcome in run_suite(params, n=n, seed=seed, checks=checks)
                 if not outcome.passed] for seed in range(3)]

    @pytest.mark.parametrize("bug", ["conjugated_first", "plain_transpose"])
    def test_transform_bug_caught_by_corollary(self, monkeypatch, bug):
        def transformed(params, b):
            b = np.asarray(b, dtype=complex)
            mat = (b.conj().T @ params.cov.mat @ b if bug == "conjugated_first"
                   else b @ params.cov.mat @ b.T)
            return CmacgParams(hermitian_part(mat), params.r)

        monkeypatch.setattr(verify.dist, "transform_parameter", transformed)
        assert self.failing(("corollary",)) == [["corollary"]] * 3

    def test_qr_frames_caught_by_the_three_exact_law_checks(self, monkeypatch):
        monkeypatch.setattr(verify.dist, "_orientation_batch",
                            lambda z: (np.linalg.qr(z)[0], np.zeros(len(z), bool)))
        checks = ("unitary_invariance", "corollary", "general_class")
        assert self.failing(checks) == [list(checks)] * 3
        # at m = r every CMACG(P) is Haar, and only e^H H f can see the QR phases
        assert self.failing(checks[1:], n=20000, m=2, r=2) == [list(checks[1:])] * 3

    @pytest.mark.parametrize("power", [-1.0, 0.5])
    def test_sampler_parameter_bug_caught_by_unitary_invariance(self, monkeypatch, power):
        # the check draws its CMACG sample as normal draws with column covariance P, which
        # it orients itself; the bug draws them with P^power, as a CMACG(P^power) sampler
        real = verify.dist.sample_complex_matrix_normal_batch

        def sampler(params, n, rng):
            w, v = np.linalg.eigh(params.column_cov.mat)
            return real(ComplexMatrixNormalParams(hermitian_part((v * w**power) @ v.conj().T),
                                                  params.r), n, rng)

        monkeypatch.setattr(verify.dist, "sample_complex_matrix_normal_batch", sampler)
        assert self.failing(("unitary_invariance",)) == [["unitary_invariance"]] * 3

    @pytest.mark.parametrize("bug", ["dropped_half", "conjugated", "noncircular"])
    def test_covariance_bug_caught_by_normal_covariance(self, monkeypatch, bug):
        stacked = verify.dist.stacked_real_covariance
        draw = verify.dist.sample_complex_matrix_normal_batch

        def noncircular(params, n, rng):
            # z = x + ix: the right E[z z^H] at a real P, but E[z z^T] is not 0
            z = draw(params, n, rng)
            return z.real + 1j * z.real

        if bug == "dropped_half":
            monkeypatch.setattr(verify.dist, "stacked_real_covariance", lambda c: 2 * stacked(c))
        elif bug == "conjugated":
            monkeypatch.setattr(verify.dist, "stacked_real_covariance",
                                lambda c: stacked(verify.linalg.HermitianPD(c.mat.conj())))
        else:
            monkeypatch.setattr(verify.dist, "sample_complex_matrix_normal_batch", noncircular)
        # a real diagonal P is its own conjugate
        cov = np.array([[3, 1 + 1j, 0.5j], [1 - 1j, 2, 0.5], [-0.5j, 0.5, 1]])
        failing = self.failing(("normal_covariance",), cov=cov if bug == "conjugated" else None)
        assert failing == [["normal_covariance"]] * 3


class TestVerdictRules:
    """Each kind keeps its own rule where the statistic equals the threshold."""

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
            "n_samples": 20000, "functional_description": "b; worst margin of 3 subtests"
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


class TestWalked:
    """``_walked`` leaves its generator where one whole normal draw leaves it, and
    ``replay`` gives that draw's values block by block, without moving the generator."""

    @pytest.mark.parametrize("m, r, n", [(3, 2, 4097), (12, 4, 1025), (3, 2, 100)],
                             ids=["lone-last-draw-joins", "byte-bounded-blocks", "one-block"])
    def test_replay_is_the_whole_draw(self, m, r, n):
        params = ComplexMatrixNormalParams(random_hpd(np.random.default_rng(m), m), r)
        rng = make_rng(62)
        whole_rng = copy.deepcopy(rng)
        whole = verify.dist.sample_complex_matrix_normal_batch(params, n, whole_rng)
        replay = verify._walked(params, n, rng)
        assert rng.bit_generator.state == whole_rng.bit_generator.state
        seen = []

        def stage(block, z):
            seen.append((block, z))
            return [z.real.reshape(1, -1), z.imag.reshape(1, -1)]

        real, imag = replay(stage)
        assert [block for block, _ in seen] == verify.dist.blocks(n, m, r)
        np.testing.assert_array_equal(np.concatenate([z for _, z in seen]), whole)
        np.testing.assert_array_equal(real + 1j * imag, whole.reshape(1, -1))
        assert rng.bit_generator.state == whole_rng.bit_generator.state


class TestReplayedSample:
    """The checks that draw after their sample replay its blocks, in turn, from one copy
    of the generator taken before the sample; a row that the sampler's orientation flags
    is redrawn from past the check's last draw, not from a replayed normal."""

    PARAMS = diag_params([3.0, 2.0, 1.0], 2)
    TRANSFORM = np.eye(3) + 0.3 * np.array([[0, 1j, 0], [0, 0, -1], [0.5, 0, 0]])

    def run(self, monkeypatch, check, flagged=None):
        """The check at seed 60, the orientation inputs, the frames whose CDFs it keeps,
        and its generator afterwards."""
        real_orient, real_cdfs = verify.dist._orientation_batch, verify._exact_law_cdfs
        inputs, frames = [], []

        def orienting(z):
            oriented, bad = real_orient(z)
            inputs.append(z.copy())
            if flagged is not None and len(inputs) == 2:
                bad[flagged - verify.dist.BLOCK_DRAWS] = True
            return oriented, bad

        def recording(h, *args):
            frames.append(h.copy())
            return real_cdfs(h, *args)

        monkeypatch.setattr(verify.dist, "_orientation_batch", orienting)
        monkeypatch.setattr(verify, "_exact_law_cdfs", recording)
        rng = make_rng(60)
        if check == "corollary":
            corollary_check(self.PARAMS, self.TRANSFORM, 10000, rng)
        else:
            general_class_check(self.PARAMS, 10000, rng)
        monkeypatch.undo()
        return inputs, np.concatenate(frames), rng

    @pytest.mark.parametrize("check", ["corollary", "general_class"])
    def test_flagged_row_is_redrawn_past_the_last_draw(self, monkeypatch, check):
        size = verify.dist.BLOCK_DRAWS
        flagged = size + 7  # in the second of five blocks
        _, clean, after = self.run(monkeypatch, check)
        inputs, frames, _ = self.run(monkeypatch, check, flagged)
        assert [len(z) for z in inputs] == [size, size, 1, size, size, 10000 - 4 * size]
        # the redraw's normals come from where the unflagged check's last draw ended
        cursor = make_rng(60)
        cursor.bit_generator.state = after.bit_generator.state
        z = verify.dist.sample_complex_matrix_normal_batch(
            ComplexMatrixNormalParams(self.PARAMS.cov, 2), 1, cursor)
        if check == "corollary":
            z = self.TRANSFORM @ z
        else:
            z /= np.sqrt(cursor.gamma(shape=3.0, scale=1 / 3.0, size=1))[:, None, None]
        np.testing.assert_array_equal(inputs[2], z)
        np.testing.assert_array_equal(frames[flagged], verify.linalg._orientation_batch(z)[0][0])
        # no frame repeats a replayed draw, and every other one is the unflagged run's
        assert len({frame.tobytes() for frame in frames} | {clean[flagged].tobytes()}) == 10001
        np.testing.assert_array_equal(np.delete(frames, flagged, 0), np.delete(clean, flagged, 0))
