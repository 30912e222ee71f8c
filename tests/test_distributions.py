import mpmath
import numpy as np
import pytest
import scipy.stats

from cmacg import (
    CmacgParams,
    ComplexMatrixNormalParams,
    DimensionMismatch,
    IllConditioned,
    ManifoldDims,
    NotOnManifold,
    RankDeficient,
    SingularTransform,
    StiefelPoint,
    ValidationError,
    cmacg_log_density,
    cmacg_log_density_batch,
    cmacg_log_density_of_transformed,
    derive_rng,
    hermitian_part,
    logdet_hpd,
    make_rng,
    projection_matrix,
    sample_cmacg,
    sample_cmacg_batch,
    sample_complex_matrix_normal,
    sample_complex_matrix_normal_batch,
    sample_uniform_stiefel,
    sample_uniform_stiefel_batch,
    stacked_real_covariance,
    transform_parameter,
)
import cmacg.distributions as dist
from conftest import random_frame, random_hpd, random_unitary


def diag_params(entries, r):
    return CmacgParams(np.diag(entries).astype(complex), r)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def trace_functional(frames, left, right=None):
    """Re tr(A H B H^H) per frame; B = I when ``right`` is None."""
    weighted = left @ frames if right is None else left @ frames @ right
    return np.sum(weighted * frames.conj(), axis=(1, 2)).real


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(7).standard_normal(5).tolist() == make_rng(7).standard_normal(5).tolist()

    def test_derive_rng_streams_differ(self):
        a = derive_rng(7, 0).standard_normal(5)
        b = derive_rng(7, 1).standard_normal(5)
        assert not np.allclose(a, b)

    def test_derive_rng_deterministic(self):
        a = derive_rng(7, 2).standard_normal(5)
        b = derive_rng(7, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_accepted(self):
        make_rng(-1).standard_normal(1)


class TestCmacgParams:
    def test_cached_quantities_consistent(self):
        rng = np.random.default_rng(0)
        params = CmacgParams(random_hpd(rng, 4, 30.0), 2)
        whitened = params.chol_inv @ params.cov.mat @ params.chol_inv.conj().T
        assert np.abs(whitened - np.eye(4)).max() <= 1e-10
        assert abs(params.logdet_cov - logdet_hpd(params.cov)) <= 1e-10

    def test_rejects_ill_conditioned(self):
        with pytest.raises(IllConditioned):
            CmacgParams(np.diag([1.0, 5e10]), 1)

    def test_rejects_frame_larger_than_ambient(self):
        with pytest.raises(DimensionMismatch):
            CmacgParams(np.eye(2), 3)

    def test_rejects_bad_frame_size(self):
        with pytest.raises(ValidationError):
            CmacgParams(np.eye(2), 0)

    def test_uniform_constructor(self):
        params = CmacgParams.uniform(ManifoldDims(3, 2))
        np.testing.assert_array_equal(params.cov.mat, np.eye(3))
        assert params.r == 2


class TestStackedRealCovariance:
    def test_block_layout(self):
        cov = dist.HermitianPD(np.array([[2.0, 1j], [-1j, 2.0]]))
        stacked = stacked_real_covariance(cov)
        re, im = cov.mat.real, cov.mat.imag
        np.testing.assert_allclose(stacked[:2, :2], 0.5 * re)
        np.testing.assert_allclose(stacked[:2, 2:], -0.5 * im)
        np.testing.assert_allclose(stacked[2:, :2], 0.5 * im)
        np.testing.assert_allclose(stacked[2:, 2:], 0.5 * re)


class TestComplexMatrixNormal:
    def test_fixed_seed_identical_draws(self):
        params = ComplexMatrixNormalParams(np.eye(2), 1)
        a = sample_complex_matrix_normal(params, make_rng(42))
        b = sample_complex_matrix_normal(params, make_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_stacked_covariance_identity_parameter(self):
        # each column's stacked real vector has covariance 0.5 * I_{2m}
        m, n = 2, 200000
        params = ComplexMatrixNormalParams(np.eye(m), 1)
        z = sample_complex_matrix_normal_batch(params, n, make_rng(5))
        columns = np.concatenate([z.real, z.imag], axis=1)[:, :, 0]
        empirical = np.cov(columns, rowvar=False, ddof=1)
        target = 0.5 * np.eye(2 * m)
        std_error = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(empirical - target) <= 3.0 * std_error)

    def test_column_second_moment_recovers_parameter(self):
        # E[z z^H] per column equals the column covariance
        cov = np.diag([2.0, 1.0]).astype(complex)
        n = 200000
        params = ComplexMatrixNormalParams(cov, 1)
        z = sample_complex_matrix_normal_batch(params, n, make_rng(6))[:, :, 0]
        outer = np.einsum("ni,nj->nij", z, z.conj())
        mean = outer.mean(axis=0)
        se = np.sqrt(
            (outer.real.var(axis=0, ddof=1) + outer.imag.var(axis=0, ddof=1)) / n
        )
        assert np.all(np.abs(mean - cov) <= 3.0 * se + 1e-12)

    def test_complex_parameter_off_diagonal_blocks(self):
        cov = np.array([[2.0, 1j], [-1j, 2.0]])
        n = 200000
        params = ComplexMatrixNormalParams(cov, 1)
        z = sample_complex_matrix_normal_batch(params, n, make_rng(8))[:, :, 0]
        columns = np.concatenate([z.real, z.imag], axis=1)
        empirical = np.cov(columns, rowvar=False, ddof=1)
        target = 0.5 * np.block([[cov.real, -cov.imag], [cov.imag, cov.real]])
        std_error = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(empirical - target) <= 4.0 * std_error)


class TestBlocks:
    """``blocks(n, m, r)`` cuts a stack of n draws shaped m x r into blocks of at most
    ``BLOCK_DRAWS`` draws and ``BLOCK_BYTES`` of complex draw values, the most that both
    allow in a multiple of 4 draws, never below 4; a lone last draw joins the block
    before it."""

    @pytest.mark.parametrize("budget", [64, 5000, dist.BLOCK_BYTES, 1 << 30])
    @pytest.mark.parametrize("m, r", [(1, 1), (3, 2), (5, 3), (6, 3), (12, 4), (24, 8),
                                      (48, 24), (97, 61), (300, 200)])
    def test_bounds_starts_and_cover(self, monkeypatch, budget, m, r):
        monkeypatch.setattr(dist, "BLOCK_BYTES", budget)
        size, per_draw = dist.block_draws(m, r), 16 * m * r
        assert size % 4 == 0 and 4 <= size <= dist.BLOCK_DRAWS
        assert size * per_draw <= budget or size == 4
        assert size == dist.BLOCK_DRAWS or (size + 4) * per_draw > budget  # the most allowed
        rng = np.random.default_rng(size)
        edges = [1, 2, 3, 4, 5, size - 1, size, size + 1, size + 2, 2 * size + 1, 3 * size + 3]
        for n in sorted(set(edges) | set(rng.integers(1, 5 * size, 20).tolist())):
            cut = dist.blocks(n, m, r)
            assert [b.start for b in cut] + [n] == [0] + [b.stop for b in cut], n
            assert all(b.step is None and b.start % 4 == 0 for b in cut), n
            lengths = [b.stop - b.start for b in cut]
            lone = n > 1 and n % size == 1  # the last block took in a lone last draw
            held = lengths[:-1] + [lengths[-1] - lone]
            assert all(0 < k <= size for k in held), n
            assert all(k == size for k in held[:-1]), n
            assert lengths[-1] > 1 or n == 1, n

    def test_budget_at_the_named_shapes(self):
        shapes = [(3, 2), (6, 3), (12, 4), (24, 8), (48, 24)]
        assert [dist.block_draws(m, r) for m, r in shapes] == [2048, 1364, 512, 128, 20]


class TestCmacgSampler:
    def test_fixed_seed_identical_draws(self):
        params = diag_params([2.0, 1.0], 1)
        a = sample_cmacg(params, make_rng(42))
        b = sample_cmacg(params, make_rng(42))
        np.testing.assert_array_equal(a.frame, b.frame)

    def test_draws_are_on_manifold(self):
        params = diag_params([3.0, 2.0, 1.0], 2)
        frames = sample_cmacg_batch(params, 1000, make_rng(1))
        residual = np.abs(
            np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(2)
        ).max()
        assert residual <= 1e-10

    def test_uniform_first_coordinate_squared_modulus(self):
        # for a uniform point on the complex unit sphere in C^2, |h_1|^2 is
        # uniform on [0, 1]
        frames = sample_uniform_stiefel_batch(ManifoldDims(2, 1), 100000, make_rng(9))
        squared = np.abs(frames[:, 0, 0]) ** 2
        statistic = scipy.stats.kstest(squared, "uniform").statistic
        critical = np.sqrt(-0.5 * np.log(0.005)) / np.sqrt(len(squared))
        assert statistic < critical

    def test_square_frame_density_is_zero_at_draws(self):
        # sampled frames sit on the manifold only to ~1e-10, which bounds the
        # attainable log-density error here; exact unitary inputs are held to
        # 1e-12 in TestLogDensity::test_square_frame_degeneracy
        params = CmacgParams(random_hpd(np.random.default_rng(2), 3, 20.0), 3)
        frames = sample_cmacg_batch(params, 500, make_rng(10))
        values = cmacg_log_density_batch(params, frames)
        assert np.abs(values).max() <= 1e-9

    def test_square_frame_draws_match_haar_unitary(self):
        # for r = m the draws are uniform on the unitary group whatever the
        # parameter; compare a generic parameter against the identity one
        import cmacg.verify as verify

        n = 50000
        generic = CmacgParams(np.diag([4.0, 1.0]).astype(complex), 2)
        haar = CmacgParams.uniform(ManifoldDims(2, 2))
        frames_1 = sample_cmacg_batch(generic, n, make_rng(34))
        frames_2 = sample_cmacg_batch(haar, n, make_rng(35))
        rng = make_rng(36)
        for _ in range(3):
            left = random_hermitian(2, rng)
            right = random_hermitian(2, rng)
            result = verify.ks_two_sample(
                trace_functional(frames_1, left, right),
                trace_functional(frames_2, left, right),
                level=0.01 / 3,
            )
            assert result.passed

    @pytest.mark.parametrize("cond", [1e8, 1e10])
    def test_orientation_holds_at_condition_edge(self, cond):
        # forming the Gram squares the condition of a draw; frames must still
        # be semi-unitary and match the SVD polar factor, with no redraw
        rng = make_rng(int(np.log10(cond)))
        normal = ComplexMatrixNormalParams(random_hpd(rng, 3, cond), 2)
        z = sample_complex_matrix_normal_batch(normal, 20000, rng)

        def no_redraw(k):
            pytest.fail(f"{k} draws redrawn")

        frames = dist._orient_with_retry(z.copy(), no_redraw)
        u, _, vh = np.linalg.svd(z, full_matrices=False)
        assert np.abs(np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(2)).max() <= 1e-10
        assert np.abs(frames - u @ vh).max() <= 1e-9

    @pytest.mark.parametrize("r", [1, 2])
    def test_retry_replaces_rank_deficient_draw(self, monkeypatch, r):
        params = diag_params([1.0, 1.0], r)
        real_sampler = dist.sample_complex_matrix_normal_batch
        calls = {"count": 0}

        def flaky(normal_params, n, rng):
            draws = real_sampler(normal_params, n, rng)
            if calls["count"] == 0:
                draws[0] = 0.0
            calls["count"] += 1
            return draws

        monkeypatch.setattr(dist, "sample_complex_matrix_normal_batch", flaky)
        frames = dist.sample_cmacg_batch(params, 50, make_rng(3))
        assert calls["count"] == 2
        assert np.abs(np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(r)).max() <= 1e-10

    def test_redraw_comes_after_the_whole_sample(self, monkeypatch):
        # a row flagged in the second of three blocks is redrawn once every block is
        # oriented, as one whole orientation redraws it: the same frames, and the
        # generator left alike
        params = diag_params([3.0, 2.0, 1.0], 2)
        size = dist.BLOCK_DRAWS
        n, flagged = 2 * size + 100, size + 7
        real, calls = dist._orientation_batch, []

        def flagging(z):
            frames, bad = real(z)
            calls.append(len(z))
            if len(calls) == 2:
                bad[flagged - size] = True
            return frames, bad

        monkeypatch.setattr(dist, "_orientation_batch", flagging)
        rng = make_rng(11)
        frames = dist.sample_cmacg_batch(params, n, rng)
        assert calls == [size, size, 100, 1]
        expected_rng = make_rng(11)
        factor = np.linalg.cholesky(stacked_real_covariance(params.cov))

        def normals(k):
            stacked = factor @ expected_rng.standard_normal((k, 6, 2))
            return stacked[:, :3] + 1j * stacked[:, 3:]

        expected = real(normals(n))[0]
        expected[flagged] = real(normals(1))[0][0]
        np.testing.assert_array_equal(frames, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_persistent_rank_deficiency_raises(self, monkeypatch):
        params = diag_params([1.0, 1.0], 1)
        real_sampler = dist.sample_complex_matrix_normal_batch

        def broken(normal_params, n, rng):
            draws = real_sampler(normal_params, n, rng)
            draws[...] = 0.0
            return draws

        monkeypatch.setattr(dist, "sample_complex_matrix_normal_batch", broken)
        with pytest.raises(RankDeficient):
            dist.sample_cmacg_batch(params, 10, make_rng(4))


class TestUniformStiefel:
    def test_single_draw_on_manifold(self):
        point = sample_uniform_stiefel(ManifoldDims(4, 2), make_rng(11))
        assert isinstance(point, StiefelPoint)

    def test_left_unitary_invariance_two_sample(self):
        # the distribution of Q @ H for fixed unitary Q matches that of H
        import cmacg.verify as verify

        n = 50000
        base = sample_uniform_stiefel_batch(ManifoldDims(3, 2), n, make_rng(30))
        other = sample_uniform_stiefel_batch(ManifoldDims(3, 2), n, make_rng(31))
        q = random_unitary(np.random.default_rng(32), 3)
        rotated = q @ other
        weights = [random_hermitian(3, make_rng(33)) for _ in range(3)]
        for weight in weights:
            result = verify.ks_two_sample(
                trace_functional(base, weight),
                trace_functional(rotated, weight),
                level=0.01 / len(weights),
            )
            assert result.passed

    def test_mean_projection_is_scaled_identity(self):
        m, r, n = 3, 2, 100000
        frames = sample_uniform_stiefel_batch(ManifoldDims(m, r), n, make_rng(12))
        projections = np.einsum("nir,njr->nij", frames, frames.conj())
        mean = projections.mean(axis=0)
        se = np.sqrt(
            (projections.real.var(axis=0, ddof=1) + projections.imag.var(axis=0, ddof=1))
            / n
        )
        assert np.all(np.abs(mean - (r / m) * np.eye(m)) <= 3.0 * se + 1e-12)


class TestLogDensity:
    def test_identity_parameter_is_zero(self):
        rng = np.random.default_rng(13)
        params = CmacgParams.uniform(ManifoldDims(4, 2))
        for _ in range(100):
            frame = random_frame(rng, 4, 2)
            assert abs(cmacg_log_density(params, frame)) <= 1e-12

    def test_hand_values(self):
        params = diag_params([2.0, 1.0], 1)
        assert cmacg_log_density(params, [[1.0], [0.0]]) == pytest.approx(np.log(2), abs=1e-14)
        assert cmacg_log_density(params, [[0.0], [1.0]]) == pytest.approx(-np.log(2), abs=1e-14)

    def test_right_unitary_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(1, m + 1))
            params = CmacgParams(random_hpd(rng, m, 20.0), r)
            frame = random_frame(rng, m, r)
            q = random_unitary(rng, r)
            base = cmacg_log_density(params, frame)
            assert abs(cmacg_log_density(params, frame @ q) - base) <= 1e-10

    def test_scale_indeterminacy(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            r = int(rng.integers(1, m + 1))
            cov = random_hpd(rng, m, 10.0)
            frame = random_frame(rng, m, r)
            base = cmacg_log_density(CmacgParams(cov, r), frame)
            for c in (1e-3, 1.0, 1e3):
                scaled = cmacg_log_density(CmacgParams(c * cov, r), frame)
                assert abs(scaled - base) <= 1e-10

    def test_square_frame_degeneracy(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            params = CmacgParams(random_hpd(rng, m, 50.0), m)
            unitary = random_unitary(rng, m)
            assert abs(cmacg_log_density(params, unitary)) <= 1e-12

    def test_rejects_off_manifold_array(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(NotOnManifold):
            cmacg_log_density(params, [[1.001], [0.0]])

    def test_dimension_mismatch(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(DimensionMismatch):
            cmacg_log_density(params, np.eye(3)[:, :1])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        frames = np.stack([random_frame(rng, 3, 2) for _ in range(20)])
        batch = cmacg_log_density_batch(params, frames)
        scalar = [cmacg_log_density(params, f) for f in frames]
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_single_frame_is_a_batch_of_one(self):
        rng = np.random.default_rng(18)
        params = CmacgParams(random_hpd(rng, 4, 100.0), 2)
        for _ in range(10):
            frame = random_frame(rng, 4, 2)
            assert cmacg_log_density(params, frame) == cmacg_log_density_batch(params, frame[None])[0]

    def test_raw_frames_keep_the_looser_tolerance(self):
        # residual ~1e-9: outside StiefelPoint's 1e-10, inside the 1e-8 for raw arrays
        rng = np.random.default_rng(19)
        frame = random_frame(rng, 3, 2) * (1 + 5e-10)
        residual = np.abs(frame.conj().T @ frame - np.eye(2)).max()
        assert 1e-10 < residual < 1e-8
        with pytest.raises(NotOnManifold):
            StiefelPoint(frame)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        assert np.isfinite(cmacg_log_density(params, frame))
        assert np.trace(projection_matrix(frame)).real == pytest.approx(2.0, abs=1e-8)

    def test_batch_reports_offending_row(self):
        params = diag_params([2.0, 1.0], 1)
        frames = np.stack([[[1.0], [0.0]], [[1.01], [0.0]]]).astype(complex)
        with pytest.raises(NotOnManifold, match="frame 1"):
            cmacg_log_density_batch(params, frames)

    def test_single_frame_validated_once(self, monkeypatch):
        real_residual = dist.linalg._semi_unitary_residual
        calls = []

        def counted(frames):
            calls.append(frames.shape)
            return real_residual(frames)

        monkeypatch.setattr(dist.linalg, "_semi_unitary_residual", counted)
        rng = np.random.default_rng(20)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        frame = random_frame(rng, 3, 2)
        cmacg_log_density(params, frame)
        assert len(calls) == 1
        cmacg_log_density(params, StiefelPoint(frame))
        assert len(calls) == 3  # StiefelPoint validates on construction, the density once

    @pytest.mark.parametrize("stretch,accepted", [(2.5e-9, True), (1e-8, False)])
    def test_raw_frame_tolerance_edge(self, stretch, accepted):
        # a frame scaled by 1 + s has residual (1 + s)^2 - 1, about 2s: 5e-9 and 2e-8
        rng = np.random.default_rng(21)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        frame = random_frame(rng, 3, 2)
        stretched = frame * (1 + stretch)
        residual = np.abs(stretched.conj().T @ stretched - np.eye(2)).max()
        assert residual == pytest.approx(2 * stretch, rel=1e-3)
        if accepted:
            assert np.isfinite(cmacg_log_density(params, stretched))
        else:
            with pytest.raises(NotOnManifold):
                cmacg_log_density(params, stretched)

    def test_stiefel_point_matches_raw_frame(self):
        rng = np.random.default_rng(22)
        params = CmacgParams(random_hpd(rng, 4, 100.0), 2)
        for _ in range(10):
            frame = random_frame(rng, 4, 2)
            assert cmacg_log_density(params, StiefelPoint(frame)) == cmacg_log_density(params, frame)


def mp_log_density(cov, frame):
    """-r logdet(P) - m logdet(H^H P^{-1} H) of the given floats, in 50-digit arithmetic."""
    m, r = frame.shape
    with mpmath.workdps(50):
        p = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in cov])
        h = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in frame])
        inner = h.H * (mpmath.inverse(p) * h)
        return -r * mpmath.log(mpmath.re(mpmath.det(p))) - m * mpmath.log(mpmath.re(mpmath.det(inner)))


class TestDensityOracle:
    """The density at the parameter condition edge against a high-precision reference."""

    @pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (6, 3), (3, 1)])
    def test_matches_mpmath_at_condition_edge(self, m, r):
        # random_hpd at exactly 1e10 can round past PARAM_MAX_COND
        params = CmacgParams(random_hpd(np.random.default_rng(5), m, 0.99e10), r)
        frames = sample_cmacg_batch(params, 30, make_rng(5))
        values = cmacg_log_density_batch(params, frames)
        worst = 0.0
        for frame, value in zip(frames, values):
            reference = mp_log_density(params.cov.mat, frame)
            worst = max(worst, float(abs(reference - value)) / max(1.0, float(abs(reference))))
        assert worst <= 1e-10


def mp_polar_factor(z):
    """Z (Z^H Z)^{-1/2} of the given floats, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        zm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in z])
        eigvals, eigvecs = mpmath.eighe(zm.H * zm)
        inv_sqrt = eigvecs * mpmath.diag([1 / mpmath.sqrt(v) for v in eigvals]) * eigvecs.H
        return np.array((zm * inv_sqrt).tolist(), dtype=complex)


class TestPolarOracle:
    """The orientation at the parameter condition edge against a high-precision polar factor."""

    @pytest.mark.parametrize("m,r", [(3, 2), (6, 3)])
    def test_matches_mpmath_at_condition_edge(self, m, r):
        # the error grows with a draw's condition number, so the reference is
        # taken on the 30 worst-conditioned of 20000 draws and on 30 others;
        # square draws (m = r = 2) miss 1e-9 here; the next test holds them to kappa(Z) * eps
        rng = make_rng(10)
        normal = ComplexMatrixNormalParams(random_hpd(rng, m, 1e10), r)
        z = sample_complex_matrix_normal_batch(normal, 20000, rng)
        frames = dist._orient_with_retry(z.copy(), lambda k: pytest.fail(f"{k} draws redrawn"))
        singular = np.linalg.svd(z, compute_uv=False)
        order = np.argsort(singular[:, 0] / singular[:, -1])
        picked = np.concatenate([order[-30:], rng.choice(order[:-30], 30, replace=False)])
        worst = max(np.abs(frames[i] - mp_polar_factor(z[i])).max() for i in picked)
        assert worst <= 1e-9

    @pytest.mark.parametrize("seed", [10, 15])
    def test_square_draws_within_their_condition_number(self, seed):
        # m = r = 2: the bound is kappa(Z) * eps, kappa = sigma_max / sigma_min of the draw;
        # seed 15 holds the worst absolute error seen, 4.2e-9 at kappa 1.3e8
        rng = make_rng(seed)
        normal = ComplexMatrixNormalParams(random_hpd(rng, 2, 1e10), 2)
        z = sample_complex_matrix_normal_batch(normal, 20000, rng)
        frames = dist._orient_with_retry(z.copy(), lambda k: pytest.fail(f"{k} draws redrawn"))
        singular = np.linalg.svd(z, compute_uv=False)
        kappa = singular[:, 0] / singular[:, -1]
        order = np.argsort(kappa)
        picked = np.concatenate([order[-30:], rng.choice(order[:-30], 30, replace=False)])
        eps = np.finfo(float).eps
        ratios = [np.abs(frames[i] - mp_polar_factor(z[i])).max() / (kappa[i] * eps)
                  for i in picked]
        assert kappa.max() > 1e7 and max(ratios) <= 1.0


class TestProjectionMatrix:
    def test_first_basis_vector(self):
        proj = projection_matrix([[1.0], [0.0]])
        np.testing.assert_allclose(proj, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_trace_and_idempotence(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(1, m + 1))
            proj = projection_matrix(random_frame(rng, m, r))
            assert abs(np.trace(proj).real - r) <= 1e-9
            assert np.abs(proj @ proj - proj).max() <= 1e-9
            np.testing.assert_allclose(proj, proj.conj().T, atol=1e-15)

    def test_right_invariance(self):
        rng = np.random.default_rng(19)
        frame = random_frame(rng, 4, 2)
        q = random_unitary(rng, 2)
        assert np.abs(projection_matrix(frame @ q) - projection_matrix(frame)).max() <= 1e-10


class TestTransformParameter:
    def test_identity_transform(self):
        params = diag_params([2.0, 1.0], 1)
        result = transform_parameter(params, np.eye(2))
        np.testing.assert_allclose(result.cov.mat, params.cov.mat, atol=1e-15)

    def test_diagonal_transform(self):
        params = CmacgParams.uniform(ManifoldDims(2, 1))
        result = transform_parameter(params, np.diag([2.0, 1.0]))
        np.testing.assert_allclose(result.cov.mat, np.diag([4.0, 1.0]), atol=1e-15)

    def test_scalar_transform_preserves_density(self):
        rng = np.random.default_rng(20)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        scaled = transform_parameter(params, 3.0 * np.eye(3))
        np.testing.assert_allclose(scaled.cov.mat, 9.0 * params.cov.mat, atol=1e-12)
        for _ in range(20):
            frame = random_frame(rng, 3, 2)
            assert abs(
                cmacg_log_density(scaled, frame) - cmacg_log_density(params, frame)
            ) <= 1e-10

    def test_singular_transform(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(SingularTransform):
            transform_parameter(params, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_shape_mismatch(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(DimensionMismatch):
            transform_parameter(params, np.eye(3))


class TestTransformedDensity:
    def test_identity_transform_reduces_to_base(self):
        rng = np.random.default_rng(21)
        params = CmacgParams(random_hpd(rng, 3, 10.0), 2)
        frame = random_frame(rng, 3, 2)
        lhs = cmacg_log_density_of_transformed(params, np.eye(3), frame)
        assert abs(lhs - cmacg_log_density(params, frame)) <= 1e-12

    def test_hand_value(self):
        params = CmacgParams.uniform(ManifoldDims(2, 1))
        b = np.diag([2.0, 1.0])
        frame = [[1.0], [0.0]]
        value = cmacg_log_density_of_transformed(params, b, frame)
        assert value == pytest.approx(np.log(4.0), abs=1e-12)
        direct = cmacg_log_density(transform_parameter(params, b), frame)
        assert value == pytest.approx(direct, abs=1e-12)

    def test_matches_transformed_parameter_density(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            r = int(rng.integers(1, m + 1))
            params = CmacgParams(random_hpd(rng, m, 10.0), r)
            b = np.eye(m) + 0.4 * (
                rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            ) / np.sqrt(m)
            frame = random_frame(rng, m, r)
            literal = cmacg_log_density_of_transformed(params, b, frame)
            direct = cmacg_log_density(transform_parameter(params, b), frame)
            assert abs(literal - direct) <= 1e-9

    def test_singular_transform(self):
        params = diag_params([2.0, 1.0], 1)
        with pytest.raises(SingularTransform):
            cmacg_log_density_of_transformed(
                params, np.zeros((2, 2)), [[1.0], [0.0]]
            )
