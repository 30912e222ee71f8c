"""Sampling and density evaluation on the complex Stiefel manifold.

Implements the central complex matrix normal distribution, the complex
matrix angular central Gaussian (CMACG) distribution it induces through the
polar decomposition, the uniform distribution as the identity-parameter
special case, plus parameter transformation under left multiplication and
the projection-matrix representation of subspaces.

The CMACG log-density is taken with respect to the normalized invariant
measure of unit mass on the manifold, so the uniform density is identically
one.  The parameter matrix is identified only up to a positive scalar; no
canonical normalization is imposed.

Samplers consume a caller-supplied ``numpy.random.Generator``; identical
seed and call sequence reproduce identical draws.  For concurrent sampling
use one generator per thread, derived via :func:`derive_rng`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    IllConditioned,
    NotOnManifold,
    RankDeficient,
    SingularTransform,
    ValidationError,
)
from .linalg import HermitianPD, StiefelPoint, _orientation_batch, as_complex_matrix, hermitian_part

if TYPE_CHECKING:
    from .special import ManifoldDims

# Parameter matrices beyond this condition number degrade both the density
# evaluation and the polar step of the sampler.
PARAM_MAX_COND = 1e10

# Frames supplied as raw arrays (rather than validated StiefelPoint values)
# are accepted up to this semi-unitarity residual.
DENSITY_MANIFOLD_ATOL = 1e-8

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def __getattr__(name):
    # RngState, the opaque generator type the samplers consume, resolves on use:
    # naming np.random.Generator at import would load numpy.random for every caller.
    if name == "RngState":
        return np.random.Generator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator from a 64-bit master seed."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def derive_rng(seed: int, *lane: int) -> np.random.Generator:
    """Independent stream for a (seed, lane index...) pair.

    The split is the documented SeedSequence spawn-key construction, so a
    lane's stream depends only on the master seed and its lane indices.
    """
    sequence = np.random.SeedSequence(
        entropy=int(seed) & _SEED_MASK, spawn_key=tuple(int(i) for i in lane)
    )
    return np.random.default_rng(sequence)


class CmacgParams:
    """Validated CMACG parameter P = L L^H: the matrix, L^{-1} and log det P.

    Both cached quantities come from one Cholesky factor, so the density's
    whitened frames L^{-1} H and its log-det terms agree.  Rejects parameter
    matrices with condition number above ``PARAM_MAX_COND``.
    """

    __slots__ = ("cov", "r", "chol_inv", "logdet_cov")

    def __init__(self, cov, r: int):
        cov = cov if isinstance(cov, HermitianPD) else HermitianPD(cov, name="parameter matrix")
        if not isinstance(r, int) or r < 1:
            raise ValidationError(f"frame size r must be a positive integer, got {r}")
        if cov.dim < r:
            raise DimensionMismatch(
                f"frame size r={r} exceeds ambient dimension m={cov.dim}"
            )
        eigs = np.linalg.eigvalsh(cov.mat)
        cond = eigs[-1] / eigs[0]
        if cond > PARAM_MAX_COND:
            raise IllConditioned(
                f"parameter matrix condition number {cond:.3e} exceeds {PARAM_MAX_COND:.1e}"
            )
        self.cov = cov
        self.r = r
        # column j of L, then row j of L^{-1}, in extended precision (float64: 2e-8 error at 1e10)
        low, inv = cov.mat.astype(np.clongdouble), np.zeros(cov.mat.shape, np.clongdouble)
        for j in range(cov.dim):
            low[j, j] = np.sqrt(low[j, j].real - (abs(low[j, :j]) ** 2).sum())
            low[j + 1:, j] = (low[j + 1:, j] - low[j + 1:, :j] @ low[j, :j].conj()) / low[j, j]
            inv[j, :j + 1] = np.append(-(low[j, :j] @ inv[:j, :j]), 1.0) / low[j, j]
        self.chol_inv = inv.astype(np.complex128)
        self.logdet_cov = 2.0 * float(np.log(low.diagonal().real).sum())

    @property
    def m(self) -> int:
        return self.cov.dim

    @classmethod
    def uniform(cls, dims: ManifoldDims) -> "CmacgParams":
        """Identity parameter: the uniform distribution on the manifold."""
        return cls(np.eye(dims.m, dtype=np.complex128), dims.r)

    def __repr__(self) -> str:
        return f"CmacgParams(m={self.m}, r={self.r})"


class ComplexMatrixNormalParams:
    """Central complex matrix normal: r i.i.d. columns with a common covariance.

    The mean is fixed at zero.  Each column, stacked as the real vector
    (real parts, imaginary parts), has covariance ``0.5 * [[C_re, -C_im],
    [C_im, C_re]]`` for the column covariance ``C``: E[z z^H] = C and E[z z^T]
    = 0, so C^{-1/2} z has i.i.d. CN(0, 1) entries, as ``verify`` tests.
    """

    __slots__ = ("column_cov", "r")

    def __init__(self, column_cov, r: int):
        self.column_cov = (
            column_cov
            if isinstance(column_cov, HermitianPD)
            else HermitianPD(column_cov, name="column covariance")
        )
        if not isinstance(r, int) or r < 1:
            raise ValidationError(f"column count r must be a positive integer, got {r}")
        self.r = r

    @property
    def m(self) -> int:
        return self.column_cov.dim

    def __repr__(self) -> str:
        return f"ComplexMatrixNormalParams(m={self.m}, r={self.r})"


def stacked_real_covariance(column_cov: HermitianPD) -> np.ndarray:
    """Real 2m-by-2m covariance of a column's stacked (real, imaginary) parts."""
    re, im = column_cov.mat.real, column_cov.mat.imag
    return 0.5 * np.block([[re, -im], [im, re]])


def sample_complex_matrix_normal_batch(
    params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` matrices, returned as an (n, m, r) complex array."""
    if n < 1:
        raise ValidationError(f"draw count must be >= 1, got {n}")
    m = params.m
    real_cov = stacked_real_covariance(params.column_cov)
    try:
        factor = np.linalg.cholesky(real_cov)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - internal invariant
        raise CholeskyFailure(f"stacked real covariance is not PD: {exc}") from exc
    stacked = factor @ rng.standard_normal((n, 2 * m, params.r))
    return stacked[:, :m, :] + 1j * stacked[:, m:, :]


def sample_complex_matrix_normal(
    params: ComplexMatrixNormalParams, rng: np.random.Generator
) -> np.ndarray:
    """One m-by-r draw from the central complex matrix normal."""
    return sample_complex_matrix_normal_batch(params, 1, rng)[0]


def _orient_with_retry(z: np.ndarray, redraw) -> np.ndarray:
    """Orient a batch, redrawing rank-deficient rows once via ``redraw(k)``."""
    frames, bad = _orientation_batch(z)
    if bad.any():
        retried, still_bad = _orientation_batch(redraw(int(bad.sum())))
        if still_bad.any():
            raise RankDeficient(
                "rank-deficient normal draw persisted after one retry; "
                "parameter matrix or generator is defective"
            )
        frames[bad] = retried
    return frames


def sample_cmacg_batch(
    params: CmacgParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` CMACG draws as an (n, m, r) array of semi-unitary frames.

    Each draw is the orientation of a complex matrix normal draw with the
    parameter as column covariance.  A rank-deficient draw (probability
    zero, but floating point can produce one) is redrawn exactly once.
    """
    normal_params = ComplexMatrixNormalParams(params.cov, params.r)
    z = sample_complex_matrix_normal_batch(normal_params, n, rng)
    return _orient_with_retry(
        z, lambda k: sample_complex_matrix_normal_batch(normal_params, k, rng)
    )


def sample_cmacg(params: CmacgParams, rng: np.random.Generator) -> StiefelPoint:
    """One draw from CMACG with the given parameter."""
    return StiefelPoint(sample_cmacg_batch(params, 1, rng)[0])


def sample_uniform_stiefel_batch(
    dims: ManifoldDims, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` draws from the uniform distribution on the manifold."""
    return sample_cmacg_batch(CmacgParams.uniform(dims), n, rng)


def sample_uniform_stiefel(dims: ManifoldDims, rng: np.random.Generator) -> StiefelPoint:
    """One uniform draw; the identity-parameter case of the CMACG sampler."""
    return sample_cmacg(CmacgParams.uniform(dims), rng)


def cmacg_log_density(params: CmacgParams, h) -> float:
    """CMACG log-density at a frame, w.r.t. the normalized invariant measure.

    Equals ``-r*logdet(P) - m*logdet(H^H P^{-1} H)`` for parameter ``P``;
    identically zero for the identity parameter and for square frames.
    Evaluated, and a raw array validated, by the batch function as a batch of one.
    """
    frame = h.frame if isinstance(h, StiefelPoint) else np.asarray(h)
    return float(cmacg_log_density_batch(params, frame[None])[0])


def cmacg_log_density_batch(params: CmacgParams, frames: np.ndarray) -> np.ndarray:
    """Log-densities for a batch of frames shaped (n, m, r).

    Every frame is validated against ``DENSITY_MANIFOLD_ATOL``; the raised
    error names the first offending row.  The inner log-det is log det(W^H W), W = L^{-1} H.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    if frames.ndim != 3 or frames.shape[1:] != (params.m, params.r):
        raise DimensionMismatch(
            f"expected frames shaped (n, {params.m}, {params.r}), got {frames.shape}"
        )
    if not np.all(np.isfinite(frames)):
        raise ValidationError("frames contain NaN or infinite entries")
    residuals = linalg._semi_unitary_residual(frames)
    if residuals.max() > DENSITY_MANIFOLD_ATOL:
        index = int(np.argmax(residuals > DENSITY_MANIFOLD_ATOL))
        raise NotOnManifold(
            f"frame {index} is not semi-unitary: residual {residuals[index]:.3e} "
            f"exceeds {DENSITY_MANIFOLD_ATOL:.1e}",
            residual=float(residuals[index]),
        )
    whitened = params.chol_inv @ linalg._frame_columns(frames)
    inner = linalg._gram_logdet(whitened.reshape(params.m, -1, params.r).transpose(1, 0, 2))
    return -params.r * params.logdet_cov - params.m * inner


def projection_matrix(h) -> np.ndarray:
    """Projection H H^H onto the column span of a frame.

    Hermitian and idempotent with trace r; represents the frame's point on
    the complex Grassmann manifold.  Returned as a plain array since it is
    rank-deficient for r < m.
    """
    frame = linalg._frame_from_array(h, "frame", DENSITY_MANIFOLD_ATOL)
    return hermitian_part(frame @ frame.conj().T)


def _validated_transform(transform, m: int) -> np.ndarray:
    arr = as_complex_matrix(transform, "transform")
    if arr.shape != (m, m):
        raise DimensionMismatch(f"transform must be {m}x{m}, got {arr.shape}")
    svals = np.linalg.svd(arr, compute_uv=False)
    if svals[-1] <= m * linalg.RANK_RTOL * svals[0]:
        raise SingularTransform(
            f"transform is numerically singular: smallest singular value "
            f"{svals[-1]:.3e} vs largest {svals[0]:.3e}"
        )
    return arr


def transform_parameter(params: CmacgParams, transform) -> CmacgParams:
    """Parameter of the orientation of a left-transformed draw.

    If frames follow CMACG(P), the orientation of ``B @ Z`` for nonsingular
    square ``B`` follows CMACG(B P B^H); this builds that parameter.
    """
    b = _validated_transform(transform, params.m)
    return CmacgParams(hermitian_part(b @ params.cov.mat @ b.conj().T), params.r)


def cmacg_log_density_of_transformed(params: CmacgParams, transform, h_y) -> float:
    """Log-density of the orientation of a left-transformed draw, computed literally.

    Forms ``W = B^{-1} H_Y``, takes its orientation, and evaluates
    ``-r*logdet(B^H B) - m*logdet(W^H W)`` plus the base CMACG log-density at
    that orientation, with ``logdet(B^H B) = 2*log|det B|``.  Must agree with
    ``cmacg_log_density`` under :func:`transform_parameter`; the agreement of
    the two code paths is one of the verified identities.
    """
    b = _validated_transform(transform, params.m)
    frame = linalg._frame_from_array(h_y, "h_y", DENSITY_MANIFOLD_ATOL)
    if frame.shape != (params.m, params.r):
        raise DimensionMismatch(
            f"frame shape {frame.shape} does not match parameter dims "
            f"({params.m}, {params.r})"
        )
    w = np.linalg.solve(b, frame)
    orientation, gram = linalg.polar_decompose(w)
    _, log_abs_det_b = np.linalg.slogdet(b)
    return float(
        -2 * params.r * log_abs_det_b
        - params.m * linalg.logdet_hpd(gram)
        + cmacg_log_density(params, orientation)
    )
