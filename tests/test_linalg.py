import numpy as np
import pytest

from cmacg import (
    ComplexMatrixNormalParams,
    DimensionMismatch,
    HermitianPD,
    NonConvergence,
    NotOnManifold,
    RankDeficient,
    StiefelPoint,
    ValidationError,
    hermitian_inv_sqrt,
    hermitian_sqrt_eig,
    hermitian_sqrt_newton,
    logdet_hpd,
    polar_decompose,
    sample_complex_matrix_normal_batch,
)
from cmacg.linalg import (
    _frame_columns,
    _gram_logdet,
    _orientation_batch,
    _semi_unitary_residual,
    _small_gram,
)
from conftest import random_frame, random_hpd, random_unitary


class TestHermitianPD:
    def test_symmetrizes_on_construction(self):
        a = np.array([[2.0, 1.0 + 1e-14j], [1.0 - 2e-14j, 3.0]])
        hpd = HermitianPD(a)
        np.testing.assert_allclose(hpd.mat, hpd.mat.conj().T, rtol=0, atol=0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianPD(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="not positive definite"):
            HermitianPD(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(ValidationError, match="not positive definite"):
            HermitianPD(np.diag([1.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            HermitianPD(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            HermitianPD(np.ones((2, 3)))

    def test_stored_matrix_is_read_only(self):
        hpd = HermitianPD(np.eye(2))
        with pytest.raises(ValueError):
            hpd.mat[0, 0] = 5.0


class TestStiefelPoint:
    def test_accepts_random_frame(self):
        frame = random_frame(np.random.default_rng(0), 5, 3)
        point = StiefelPoint(frame)
        assert (point.m, point.r) == (5, 3)

    def test_rejects_off_manifold(self):
        frame = random_frame(np.random.default_rng(1), 4, 2)
        with pytest.raises(NotOnManifold) as excinfo:
            StiefelPoint(frame * 1.001)
        assert excinfo.value.residual > 1e-10

    def test_rejects_wide(self):
        with pytest.raises(DimensionMismatch, match="at least as many rows"):
            StiefelPoint(np.ones((2, 3)))


class TestSqrtNewton:
    def test_diagonal(self):
        root = hermitian_sqrt_newton(HermitianPD(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(root.mat, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity_fixed_point(self):
        root = hermitian_sqrt_newton(HermitianPD(np.eye(3)))
        np.testing.assert_allclose(root.mat, np.eye(3), atol=1e-13)

    def test_two_by_two_against_eig_oracle(self):
        # eigenvalues of [[2, i], [-i, 2]] are 1 and 3; the principal root has
        # entries ((sqrt(3)+1)/2, +-(sqrt(3)-1)/2 * i)
        a = HermitianPD(np.array([[2.0, 1j], [-1j, 2.0]]))
        expected = np.array(
            [
                [(np.sqrt(3) + 1) / 2, (np.sqrt(3) - 1) / 2 * 1j],
                [-((np.sqrt(3) - 1) / 2) * 1j, (np.sqrt(3) + 1) / 2],
            ]
        )
        newton = hermitian_sqrt_newton(a)
        oracle = hermitian_sqrt_eig(a)
        np.testing.assert_allclose(newton.mat, expected, atol=1e-12)
        np.testing.assert_allclose(oracle.mat, expected, atol=1e-12)
        np.testing.assert_allclose(newton.mat @ newton.mat, a.mat, atol=1e-12)

    def test_agrees_with_eig_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 11))
            cond = 10.0 ** rng.uniform(0, 8)
            a = HermitianPD(random_hpd(rng, dim, cond))
            scale = max(1.0, np.abs(a.mat).max())
            newton = hermitian_sqrt_newton(a, tol=1e-10)
            oracle = hermitian_sqrt_eig(a)
            assert np.abs(newton.mat - oracle.mat).max() <= 1e-8 * scale
            assert np.abs(newton.mat @ newton.mat - a.mat).max() <= 1e-10 * scale

    def test_nonconvergence_reports_residual(self):
        a = HermitianPD(random_hpd(np.random.default_rng(2), 4, 100.0))
        with pytest.raises(NonConvergence) as excinfo:
            hermitian_sqrt_newton(a, tol=1e-14, max_iter=1)
        assert excinfo.value.residual > 0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValidationError):
            hermitian_sqrt_newton(HermitianPD(np.eye(2)), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_tolerance_not_positive_and_finite(self, tol):
        # NaN passes a plain "tol <= 0" check and stops no iteration; inf accepts any root
        a = HermitianPD(np.array([[400.0, 1.0], [1.0, 0.01]]))
        with pytest.raises(ValidationError, match=f"^tol must be positive and finite, got {tol}$"):
            hermitian_sqrt_newton(a, tol=tol, max_iter=1)

    def test_polish_converges_at_condition_1e8(self, monkeypatch):
        # the coupled iteration stalls above the default tolerance on this input;
        # the Newton correction steps against the original matrix bring it below
        a = HermitianPD(random_hpd(np.random.default_rng(28), 3, 1e8))
        solve, polish_steps = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: polish_steps.append(1) or solve(*args))
        root = hermitian_sqrt_newton(a)
        monkeypatch.undo()
        scale = np.abs(a.mat).max()
        assert polish_steps
        assert np.abs(root.mat @ root.mat - a.mat).max() <= 1e-12 * scale
        assert np.abs(root.mat - hermitian_sqrt_eig(a).mat).max() <= 1e-8 * np.sqrt(scale)


class TestSqrtEig:
    def test_diagonal(self):
        root = hermitian_sqrt_eig(HermitianPD(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(root.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_identity(self):
        root = hermitian_sqrt_eig(HermitianPD(np.eye(2)))
        np.testing.assert_allclose(root.mat, np.eye(2), atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a = HermitianPD(g @ g.conj().T + 0.1 * np.eye(5))
            root = hermitian_sqrt_eig(a)
            assert np.abs(root.mat @ root.mat - a.mat).max() <= 1e-10 * np.abs(a.mat).max()


class TestInvSqrt:
    def test_diagonal(self):
        result = hermitian_inv_sqrt(HermitianPD(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(result.mat, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity(self):
        result = hermitian_inv_sqrt(HermitianPD(np.eye(4)))
        np.testing.assert_allclose(result.mat, np.eye(4), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = HermitianPD(random_hpd(rng, 6, 1000.0))
            result = hermitian_inv_sqrt(a)
            assert np.abs(result.mat @ a.mat @ result.mat - np.eye(6)).max() <= 1e-9


class TestPolarDecompose:
    def test_single_column(self):
        orientation, gram = polar_decompose(np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(orientation.frame, [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(gram.mat, [[4.0]], atol=1e-14)

    def test_semi_unitary_input_is_fixed_point(self):
        frame = random_frame(np.random.default_rng(5), 5, 3)
        orientation, gram = polar_decompose(frame)
        np.testing.assert_allclose(orientation.frame, frame, atol=1e-12)
        np.testing.assert_allclose(gram.mat, np.eye(3), atol=1e-12)

    def test_reconstruction_contracts(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, m + 1))
            z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            orientation, gram = polar_decompose(z)
            root = hermitian_sqrt_eig(gram)
            scale = max(1.0, np.abs(z).max())
            assert np.abs(orientation.frame @ root.mat - z).max() <= 1e-9 * scale
            residual = np.abs(
                orientation.frame.conj().T @ orientation.frame - np.eye(r)
            ).max()
            assert residual <= 1e-10

    def test_right_unitary_transformation(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        q = random_unitary(rng, 3)
        orientation, gram = polar_decompose(z)
        rotated, rotated_gram = polar_decompose(z @ q)
        np.testing.assert_allclose(rotated.frame, orientation.frame @ q, atol=1e-10)
        np.testing.assert_allclose(rotated_gram.mat, q.conj().T @ gram.mat @ q, atol=1e-10)

    def test_rank_deficient(self):
        z = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            polar_decompose(z)

    def test_nearly_rank_deficient(self):
        z = np.array([[1.0, 1.0], [1e-15, 0.0], [0.0, 1e-15]])
        with pytest.raises(RankDeficient):
            polar_decompose(z)

    @staticmethod
    def near_gate_input(ratio):
        rng = np.random.default_rng(8)
        z = random_frame(rng, 5, 3) @ np.diag([1.0, 0.5, ratio]) @ random_unitary(rng, 3)
        svals = np.linalg.svd(z, compute_uv=False)
        assert svals[-1] > 5 * 1e-12 * svals[0]
        return z

    def test_near_gate_input_gets_a_polished_factor(self):
        # at sigma ratio 1e-5 the eigh factor misses 1e-10; one Newton-Schulz
        # step brings it back onto the manifold and onto the SVD polar factor
        z = self.near_gate_input(1e-5)
        orientation, _ = polar_decompose(z)
        u, _, vh = np.linalg.svd(z, full_matrices=False)
        assert semi_unitary_residual(orientation.frame) <= 1e-10
        assert np.abs(orientation.frame - u @ vh).max() <= 1e-10

    @pytest.mark.parametrize("ratio, cause", [(1e-8, ValidationError), (1e-11, ValidationError)])
    def test_passes_svd_gate_but_fails_factor_validation(self, ratio, cause):
        # sigma_min/sigma_max stays above the m * 1e-12 singular-value gate, but
        # the Gram matrix is not numerically PD, which surfaces as RankDeficient
        z = self.near_gate_input(ratio)
        with pytest.raises(RankDeficient) as excinfo:
            polar_decompose(z)
        assert type(excinfo.value.__cause__) is cause


def semi_unitary_residual(frames):
    r = frames.shape[-1]
    return np.abs(np.swapaxes(frames.conj(), -1, -2) @ frames - np.eye(r)).max()


def svd_polar(z):
    u, _, vh = np.linalg.svd(z, full_matrices=False)
    return u @ vh


class TestOrientationKernel:
    """``_orientation_batch`` against the SVD polar factor as an oracle."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("cond", [10.0, 1e3, 1e6])
    def test_two_columns_match_svd_polar_factor(self, m, cond):
        rng = np.random.default_rng(m)
        cov = ComplexMatrixNormalParams(random_hpd(rng, m, cond), 2)
        z = sample_complex_matrix_normal_batch(cov, 2000, rng)
        frames, bad = _orientation_batch(z)
        assert not bad.any()
        assert semi_unitary_residual(frames) <= 1e-10
        assert np.abs(frames - svd_polar(z)).max() <= 1e-10

    def test_newton_schulz_step_keeps_square_draws_at_condition_edge(self):
        # square 2x2 draws at parameter condition 1e10: the closed form leaves
        # some frames just outside 1e-10, and the step must bring every one back
        rng = np.random.default_rng(10)
        cov = ComplexMatrixNormalParams(random_hpd(rng, 2, 1e10), 2)
        z = sample_complex_matrix_normal_batch(cov, 20000, rng)
        frames, bad = _orientation_batch(z)
        assert not bad.any()
        assert _semi_unitary_residual(frames).max() <= 1e-10

    def test_orthogonal_columns_are_normalised(self):
        # for orthogonal columns the polar factor is each column over its norm
        rng = np.random.default_rng(11)
        q = random_frame(rng, 4, 2)
        z = (q * np.array([3.0, 1e-3]))[None]
        frames, bad = _orientation_batch(z)
        assert not bad[0]
        np.testing.assert_allclose(frames[0], q, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_two_columns_scale_invariant(self, scale):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((50, 3, 2)) + 1j * rng.standard_normal((50, 3, 2))
        frames, bad = _orientation_batch(z)
        scaled, scaled_bad = _orientation_batch(scale * z)
        assert not bad.any() and not scaled_bad.any()
        np.testing.assert_allclose(scaled, frames, rtol=0, atol=1e-14)

    def test_rank_deficient_two_column_rows_flagged(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        z[1] = 0.0
        z[2, :, 0] = 0.0
        z[3, :, 1] = (0.3 - 2.0j) * z[3, :, 0]
        frames, bad = _orientation_batch(z)
        np.testing.assert_array_equal(bad, [False, True, True, True, False])
        good = ~bad
        assert semi_unitary_residual(frames[good]) <= 1e-10
        np.testing.assert_allclose(frames[good], svd_polar(z[good]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_residual_matches_matmul_definition(self, r):
        rng = np.random.default_rng(14)
        frames = random_frame(rng, 4, r) + 1e-7 * rng.standard_normal((4, r))
        stack = np.stack([frames, random_frame(rng, 4, r)])
        expected = [semi_unitary_residual(f) for f in stack]
        np.testing.assert_allclose(_semi_unitary_residual(stack), expected, rtol=1e-12, atol=1e-16)
        # a strided view, with the columns reversed, has the same residual
        np.testing.assert_allclose(
            _semi_unitary_residual(stack[..., ::-1]), expected, rtol=1e-12, atol=1e-16
        )
        assert float(_semi_unitary_residual(frames)) == pytest.approx(expected[0], rel=1e-12)


class TestLogdet:
    def test_diagonal_exact(self):
        assert logdet_hpd(HermitianPD(np.diag([2.0, 1.0]))) == np.log(2.0)

    def test_identity_exact(self):
        assert logdet_hpd(HermitianPD(np.eye(5))) == 0.0

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = HermitianPD(random_hpd(rng, 5, 100.0))
            oracle = float(np.sum(np.log(np.linalg.eigvalsh(a.mat))))
            assert abs(logdet_hpd(a) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_scaling_identity(self):
        rng = np.random.default_rng(9)
        a = HermitianPD(random_hpd(rng, 4, 10.0))
        for c in (0.5, 2.0, 100.0):
            scaled = HermitianPD(c * a.mat)
            assert abs(logdet_hpd(scaled) - (4 * np.log(c) + logdet_hpd(a))) <= 1e-10


def qr_gram_logdet(x):
    """log det(X^H X) as 2 sum log|R_ii| of a QR factorization, backward stable in X."""
    upper = np.linalg.qr(x)[1]
    return 2 * np.log(np.abs(np.diagonal(upper, axis1=-2, axis2=-1))).sum(axis=-1)


class TestGramLogdet:
    """The inner-form log-det kernel and the side-by-side layout it is fed from."""

    @pytest.mark.parametrize("m,r", [(1, 1), (3, 1), (2, 2), (3, 2), (6, 3), (12, 4)])
    def test_matches_qr_oracle(self, m, r):
        rng = np.random.default_rng(10 * m + r)
        x = rng.standard_normal((200, m, r)) + 1j * rng.standard_normal((200, m, r))
        assert np.abs(_gram_logdet(x) - qr_gram_logdet(x)).max() <= 1e-12

    def test_near_parallel_columns_avoid_cancellation(self):
        # a d - |b|^2 loses six digits here; the orthogonal part keeps them
        rng = np.random.default_rng(11)
        first = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        second = first + 1e-3 * (rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3)))
        x = np.stack([first, second], axis=-1)
        assert np.abs(_gram_logdet(x) - qr_gram_logdet(x)).max() <= 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    def test_small_gram_reads_a_laid_out_stack_in_place(self, r):
        rng = np.random.default_rng(12 + r)
        frames = np.stack([random_frame(rng, 5, r) for _ in range(50)])
        columns = _frame_columns(frames)
        laid_out = columns.reshape(5, 50, r).transpose(1, 0, 2)
        assert np.shares_memory(_frame_columns(laid_out), columns)
        for got, want in zip(_small_gram(laid_out), _small_gram(frames)):
            if want is not None:
                assert np.abs(got - want).max() <= 1e-15
