"""Dense complex matrix primitives.

Validated value types (Hermitian positive definite matrices, semi-unitary
frames) plus the operations the samplers and densities are built from:
principal Hermitian square roots (a coupled Newton iteration and an
eigendecomposition oracle), inverse square roots, polar decomposition and
log-determinants.

One kernel per operation, which single-matrix callers use as a batch of
one: ``_semi_unitary_residual`` (max|H^H H - I| per frame), ``_frame_from_array``
(raw frames, at the caller's tolerance) and ``_orientation_batch`` (the polar
orientation Z (Z^H Z)^{-1/2} for polar_decompose and the samplers).

All operations are pure functions on immutable values; wrapped arrays are
marked read-only so values can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NonConvergence,
    NotOnManifold,
    RankDeficient,
    ValidationError,
)

# Construction-time tolerances.  Relative tolerances scale with
# max(1, max|entry|) so that near-zero matrices are not held to absurd
# absolute accuracy.
HERMITIAN_RTOL = 1e-12
PD_RTOL = 1e-12
SEMI_UNITARY_ATOL = 1e-10
RANK_RTOL = 1e-12

SQRT_TOL = 1e-12
SQRT_MAX_ITER = 100
INV_SQRT_MAX_COND = 1e12


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting empty or non-finite input."""
    arr = np.asarray(value)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=True)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H)/2, batched over leading axes."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max())


class HermitianPD:
    """A validated Hermitian positive definite matrix.

    The input is symmetrized to (A + A^H)/2 on construction; before that it
    must be Hermitian within ``HERMITIAN_RTOL`` relative to its magnitude.
    Positive definiteness requires the smallest eigenvalue to exceed
    ``dim * PD_RTOL`` times the largest.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, name: str = "matrix"):
        if isinstance(mat, HermitianPD):
            self.mat = mat.mat
            return
        arr = as_complex_matrix(mat, name)
        n = arr.shape[0]
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"{name} must be square, got shape {arr.shape}")
        scale = max(1.0, _max_abs(arr))
        asym = _max_abs(arr - arr.conj().T)
        if asym > HERMITIAN_RTOL * scale:
            raise ValidationError(
                f"{name} is not Hermitian: asymmetry {asym:.3e} exceeds "
                f"{HERMITIAN_RTOL * scale:.3e}"
            )
        arr = hermitian_part(arr)
        eigs = np.linalg.eigvalsh(arr)
        if eigs[0] <= n * PD_RTOL * max(eigs[-1], 0.0):
            raise ValidationError(
                f"{name} is not positive definite: eigenvalue range "
                f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]"
            )
        arr.setflags(write=False)
        self.mat = arr

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"HermitianPD(dim={self.dim})"


def _semi_unitary_residual(frames: np.ndarray) -> np.ndarray:
    """max|H^H H - I| of each frame in a stack shaped (..., m, r)."""
    r = frames.shape[-1]
    return np.abs(np.swapaxes(frames.conj(), -1, -2) @ frames - np.eye(r)).max(axis=(-2, -1))


def _frame_from_array(value, name: str, atol: float) -> np.ndarray:
    """A raw array as an m-by-r complex frame (m >= r), semi-unitary within ``atol``."""
    arr = as_complex_matrix(value, name)
    m, r = arr.shape
    if m < r:
        raise DimensionMismatch(f"{name} must have at least as many rows as columns, got {m}x{r}")
    residual = float(_semi_unitary_residual(arr))
    if residual > atol:
        raise NotOnManifold(
            f"{name} is not semi-unitary: residual {residual:.3e} exceeds {atol:.1e}",
            residual=residual,
        )
    return arr


class StiefelPoint:
    """A validated point on the complex Stiefel manifold.

    Holds an m-by-r frame (m >= r) whose columns are orthonormal under the
    Hermitian inner product: max|H^H H - I| <= ``SEMI_UNITARY_ATOL``.
    """

    __slots__ = ("frame",)

    def __init__(self, frame, name: str = "frame"):
        if isinstance(frame, StiefelPoint):
            self.frame = frame.frame
            return
        arr = _frame_from_array(frame, name, SEMI_UNITARY_ATOL)
        arr.setflags(write=False)
        self.frame = arr

    @property
    def m(self) -> int:
        return self.frame.shape[0]

    @property
    def r(self) -> int:
        return self.frame.shape[1]

    def __repr__(self) -> str:
        return f"StiefelPoint(m={self.m}, r={self.r})"


def hermitian_sqrt_eig(a: HermitianPD) -> HermitianPD:
    """Principal square root via the Hermitian eigendecomposition.

    Serves as the independent oracle for :func:`hermitian_sqrt_newton`.
    """
    w, v = np.linalg.eigh(a.mat)
    root = hermitian_part((v * np.sqrt(w)) @ v.conj().T)
    return HermitianPD(root, name="eigendecomposition square root")


def hermitian_sqrt_newton(
    a: HermitianPD, tol: float = SQRT_TOL, max_iter: int = SQRT_MAX_ITER
) -> HermitianPD:
    """Principal square root via a coupled, determinantally scaled Newton iteration.

    Runs the stable two-sequence reformulation of the Newton iteration for the
    principal matrix square root, with determinantal scaling to accelerate the
    initial phase, then polishes with Newton correction steps against the
    original matrix.  Succeeds when max|S*S - a| <= tol * max(1, max|a|).

    Raises
    ------
    NonConvergence
        If the residual is still above tolerance after ``max_iter`` steps;
        the exception carries the final residual.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    target_mat = a.mat
    n = a.dim
    scale = max(1.0, _max_abs(target_mat))
    target = tol * scale

    def residual_of(candidate: np.ndarray) -> float:
        return _max_abs(candidate @ candidate - target_mat)

    root = target_mat.copy()
    inv_root = np.eye(n, dtype=np.complex128)
    best = root
    best_res = residual_of(root)
    prev_res = np.inf
    steps = 0
    while steps < max_iter:
        res = residual_of(root)
        if res < best_res:
            best, best_res = root, res
        # quadratic convergence has stalled once the residual stops shrinking
        if res <= target or (steps > 2 and res > 0.9 * prev_res):
            break
        prev_res = res
        steps += 1
        det_prod = abs(np.linalg.det(root) * np.linalg.det(inv_root))
        gamma = det_prod ** (-1.0 / (2 * n)) if np.isfinite(det_prod) and det_prod > 0 else 1.0
        root_inv = np.linalg.inv(root)
        inv_root_inv = np.linalg.inv(inv_root)
        root, inv_root = (
            hermitian_part(0.5 * (gamma * root + inv_root_inv / gamma)),
            hermitian_part(0.5 * (gamma * inv_root + root_inv / gamma)),
        )
    root = best
    while steps < max_iter and best_res > target:
        steps += 1
        root = hermitian_part(0.5 * (root + np.linalg.solve(root, target_mat)))
        res = residual_of(root)
        if res >= best_res:
            break
        best, best_res = root, res
    if best_res > target:
        raise NonConvergence(
            f"square root residual {best_res:.3e} above tolerance {target:.3e} "
            f"after {steps} iterations",
            residual=best_res,
        )
    return HermitianPD(best, name="newton square root")


def hermitian_inv_sqrt(a: HermitianPD) -> HermitianPD:
    """Inverse principal square root: R with R a R = I.

    Raises
    ------
    IllConditioned
        If the condition number of ``a`` exceeds ``INV_SQRT_MAX_COND``; the
        reconstruction residual degrades with conditioning and the result
        would not be trustworthy beyond that point.
    """
    eigs, vecs = np.linalg.eigh(a.mat)
    cond = eigs[-1] / eigs[0]
    if cond > INV_SQRT_MAX_COND:
        raise IllConditioned(
            f"condition number {cond:.3e} exceeds {INV_SQRT_MAX_COND:.1e}"
        )
    inv_root = hermitian_part((vecs / np.sqrt(eigs)) @ vecs.conj().T)
    return HermitianPD(inv_root, name="inverse square root")


def _orientation_batch(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar orientations of a batch of draws, plus a bad-row mask.

    Rows are flagged when the Gram matrix fails the rank gate or the
    resulting frame misses the semi-unitarity tolerance.
    """
    m = z.shape[1]
    gram = hermitian_part(np.swapaxes(z.conj(), 1, 2) @ z)
    eigs, vecs = np.linalg.eigh(gram)
    floor = (m * RANK_RTOL) ** 2
    bad = eigs[:, 0] <= floor * eigs[:, -1]
    safe = np.where(bad[:, None], 1.0, eigs)
    inv_sqrt = (vecs / np.sqrt(safe)[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
    frames = z @ inv_sqrt
    bad |= _semi_unitary_residual(frames) > SEMI_UNITARY_ATOL
    return frames, bad


def polar_decompose(z) -> tuple[StiefelPoint, HermitianPD]:
    """Unique polar decomposition of a full-column-rank matrix.

    Returns the orientation ``h = z (z^H z)^{-1/2}`` and the Gram matrix
    ``t = z^H z``, so that ``z = h t^{1/2}``.

    Raises
    ------
    RankDeficient
        If the smallest singular value does not exceed ``m * RANK_RTOL``
        times the largest, or if the factors cannot be validated because the
        input sits too close to rank deficiency for a stable decomposition.
    """
    arr = as_complex_matrix(z, "z")
    m, r = arr.shape
    if m < r:
        raise DimensionMismatch(f"z must have at least as many rows as columns, got {m}x{r}")
    svals = np.linalg.svd(arr, compute_uv=False)
    if svals[-1] <= m * RANK_RTOL * svals[0]:
        raise RankDeficient(
            f"smallest singular value {svals[-1]:.3e} below rank threshold "
            f"{m * RANK_RTOL * svals[0]:.3e}"
        )
    frames, _ = _orientation_batch(arr[None])
    try:
        # a row the kernel flags also fails one of these two validations
        gram = HermitianPD(arr.conj().T @ arr, name="gram matrix")
        orientation = StiefelPoint(frames[0], name="orientation")
    except ValidationError as exc:
        # passes the singular-value gate but is numerically too close to rank
        # deficiency for a stable polar factor
        raise RankDeficient(str(exc)) from exc
    return orientation, gram


def logdet_hpd(a: HermitianPD) -> float:
    """log-determinant of a Hermitian positive definite matrix.

    Computed via a pivoted LU factorization; exact for diagonal inputs.
    """
    _, logdet = np.linalg.slogdet(a.mat)
    return float(logdet)
