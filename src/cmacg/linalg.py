"""Dense complex matrix primitives.

Validated value types (Hermitian positive definite matrices, semi-unitary
frames) plus the operations the samplers and densities are built from:
principal Hermitian square roots (a coupled Newton iteration and an
eigendecomposition oracle), inverse square roots, polar decomposition and
log-determinants.

One kernel per operation, which single-matrix callers use as a batch of
one: ``_semi_unitary_residual`` (max|H^H H - I| per frame), ``_frame_from_array``
(raw frames, at the caller's tolerance), ``_gram_logdet`` (log det(X^H X), the
density's inner form) and ``_orientation_batch`` (the polar orientation
Z (Z^H Z)^{-1/2} for polar_decompose and the samplers: a closed form for two
columns, ``eigh`` of the Gram otherwise, and one Newton-Schulz step for a
frame that misses the semi-unitarity tolerance).

All operations are pure functions on immutable values; wrapped arrays are
marked read-only so values can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
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


def _small_gram(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Entries of X^H X for a stack of one- or two-column matrices (..., m, r).

    Returns the diagonal, shaped (..., r), and for r = 2 the (0, 1) entry.
    Sums over rows of the real view, read in place when its rows are
    unit-stride, cost less than a batched matmul of tiny matrices.
    """
    f = (x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)).view(np.float64)
    squares = np.einsum("...mk,...mk->...k", f, f)
    diag = squares[..., ::2] + squares[..., 1::2]
    if x.shape[-1] == 1:
        return diag, None
    re = np.einsum("...mk,...mk->...", f[..., :2], f[..., 2:])
    im = np.einsum("...m,...m->...", f[..., 0], f[..., 3]) - np.einsum("...m,...m->...", f[..., 1], f[..., 2])
    return diag, re + 1j * im


def _frame_columns(frames: np.ndarray) -> np.ndarray:
    """An (n, m, r) stack as one m x (n r) matrix [H_1 ... H_n], in which one product maps
    every frame: A H_k is A times it, H_k B its (m n, r) reshape times B.  A stack already
    laid out so, as the two-column orientation keeps it, is not copied."""
    return np.ascontiguousarray(frames.transpose(1, 0, 2)).reshape(frames.shape[1], -1)


def _gram_logdet(x: np.ndarray) -> np.ndarray:
    """log det(X^H X) per matrix of a full-rank stack (..., m, r).  For r <= 2 it is
    a |x1 - (b/a) x0|^2 with the ``_small_gram`` entries a and b, which, as in the
    orientation, avoids the cancellation in ad - |b|^2."""
    if x.shape[-1] > 2:
        return np.linalg.slogdet(np.swapaxes(x.conj(), -1, -2) @ x)[1]
    diag, cross = _small_gram(x)
    if cross is None:
        return np.log(diag[..., 0])
    orth = x[..., 1] - x[..., 0] * (cross / diag[..., 0])[..., None]
    return np.log(diag[..., 0] * _small_gram(orth[..., None])[0][..., 0])


def _semi_unitary_residual(frames: np.ndarray) -> np.ndarray:
    """max|H^H H - I| of each frame in a stack shaped (..., m, r)."""
    r = frames.shape[-1]
    if r > 2:
        return np.abs(np.swapaxes(frames.conj(), -1, -2) @ frames - np.eye(r)).max(axis=(-2, -1))
    diag, cross = _small_gram(frames)
    residual = np.abs(diag - 1.0).max(axis=-1)
    return residual if r == 1 else np.maximum(residual, np.abs(cross))


def _frame_from_array(value, name: str, atol: float) -> np.ndarray:
    """A StiefelPoint's frame, or a raw array as an m-by-r complex frame (m >= r)
    semi-unitary within ``atol``."""
    if isinstance(value, StiefelPoint):
        return value.frame
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
        self.frame = _frame_from_array(frame, name, SEMI_UNITARY_ATOL)
        self.frame.setflags(write=False)

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
    if not 0.0 < tol < np.inf:  # false for NaN as well
        raise ValidationError(f"tol must be positive and finite, got {tol}")
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

    ``a`` needs no conditioning guard: ``HermitianPD`` already rejects a
    condition number of 1 / (dim * ``PD_RTOL``) = 1e12 / dim or more.
    """
    eigs, vecs = np.linalg.eigh(a.mat)
    inv_root = hermitian_part((vecs / np.sqrt(eigs)) @ vecs.conj().T)
    return HermitianPD(inv_root, name="inverse square root")


def _orientation_batch(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar orientations of a batch of draws, plus a bad-row mask.

    Two-column draws take a closed form, any other width the Gram's ``eigh``.
    A frame that misses the semi-unitarity tolerance gets one Newton-Schulz
    step H <- H (3I - H^H H)/2 (Higham, Functions of Matrices, ch. 8).  Rows
    are flagged when the Gram matrix fails the rank gate or the frame still
    misses the tolerance.
    """
    m, r = z.shape[1:]
    floor = (m * RANK_RTOL) ** 2
    if r == 2:
        # G = Z^H Z = [[a, b], [conj(b), d]].  With s = sqrt(det G) and
        # t = sqrt(tr G + 2s), G^{-1/2} = [[d + s, -b], [-conj(b), a + s]] / (s t)
        # (Higham, ch. 6).  w, the part of z1 orthogonal to z0, gives det G as
        # a |w|^2 and the frame columns without the cancellation of a d - |b|^2;
        # the frames do not depend on the scale of Z, so G is scaled to unit
        # trace.  The rank gate takes lambda_min = det G / lambda_max.
        z0, z1 = z[..., 0], z[..., 1]
        norms, b = _small_gram(z)
        a, d = norms.T
        w = z0 * (-b / np.where(a > 0, a, 1.0))[:, None]
        w += z1
        scale = 1.0 / np.where(a + d > 0, a + d, 1.0)
        a, d, b = a * scale, d * scale, b * scale
        e = _small_gram(w[..., None])[0][:, 0] * scale
        lam_max = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b.real**2 + b.imag**2)
        bad = a * e <= floor * lam_max**2
        s = np.sqrt(np.where(bad, 1.0, a * e))
        c = (np.sqrt(scale) / (s * np.sqrt(a + d + 2 * s)))[:, None]
        # (d + s) z0 - conj(b) z1 and (a + s) z1 - b z0, rewritten through w
        # and formed in place: fewer temporaries keep the heap, and so the
        # peak RSS, from growing
        frames = np.empty_like(z)
        np.multiply(z0, c * (e + s)[:, None], out=frames[..., 0])
        np.multiply(z1, c * s[:, None], out=frames[..., 1])
        frames[..., 0] -= (c * b.conj()[:, None]) * w
        w *= c * a[:, None]
        frames[..., 1] += w
    else:
        eigs, vecs = np.linalg.eigh(hermitian_part(np.swapaxes(z.conj(), 1, 2) @ z))
        bad = eigs[:, 0] <= floor * eigs[:, -1]
        safe = np.where(bad[:, None], 1.0, eigs)
        # G^{-1/2} is not kept: nothing of the Gram is alive while the frames are checked
        frames = z @ ((vecs / np.sqrt(safe)[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2)))
        del vecs
    redo = np.flatnonzero(_semi_unitary_residual(frames) > SEMI_UNITARY_ATOL)
    if redo.size:
        h = frames[redo]
        h = h @ (1.5 * np.eye(r) - 0.5 * (np.swapaxes(h.conj(), 1, 2) @ h))
        frames[redo] = h
        bad[redo] |= _semi_unitary_residual(h) > SEMI_UNITARY_ATOL
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
