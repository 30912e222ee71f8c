"""Monte Carlo verification harness.

Each distributional theorem behind the CMACG machinery becomes a seeded
statistical check with a reported estimate, standard error or critical
value, and a pass/fail verdict:

- ``normalization_check``: the density integrates to one against uniform
  draws (uniform importance sampling; the uniform sampler is exact).
- ``unitary_invariance_check``: right multiplication by a fixed unitary
  leaves the sampled orientation distribution unchanged.
- ``corollary_check``: orientations of left-transformed draws match direct
  draws under the transformed parameter.
- ``general_class_check``: orientations of scale-mixture draws match direct
  CMACG draws.
- ``normal_covariance_check``: the stacked real/imaginary column vector has
  the stated block covariance.

Distributions on the manifold are compared through scalar functionals of
the projection matrix (right-unitary invariant, hence well defined on the
subspace itself), several randomized functionals per check with Bonferroni
correction across them.  Mean-based verdicts use |estimate - target| <=
k * SE + atol, where the small absolute floor covers degenerate cases whose
integrand is deterministic and the standard error vanishes.

Every check is deterministic given its inputs and generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .distributions import CmacgParams, ComplexMatrixNormalParams
from .errors import InsufficientSample, ValidationError
from .linalg import hermitian_part
from .special import ManifoldDims

DEFAULT_K = 4.0
DEFAULT_LEVEL = 0.01
DEFAULT_FUNCTIONALS = 3
# Round-off allowance for checks whose integrand is exactly constant.
MEAN_CHECK_ATOL = 1e-9

MIN_CHECK_SAMPLES = 10000
MIN_COVARIANCE_SAMPLES = 50000
MIN_KS_SAMPLES = 100

DEFAULT_MIXTURE_SHAPE = 3.0
DEFAULT_MIXTURE_RATE = 3.0


def _require_samples(check: str, n: int) -> None:
    if check == "normalization" and n < 1:
        raise InsufficientSample(f"need at least one draw, got {n}")
    minimum = MIN_COVARIANCE_SAMPLES if check == "normal_covariance" else MIN_CHECK_SAMPLES
    if check != "normalization" and n < minimum:
        raise InsufficientSample(f"need n >= {minimum}, got {n}")


@dataclass(frozen=True)
class VerificationReport:
    """Result of a mean-based Monte Carlo check."""

    check_name: str
    n_samples: int
    estimate: float
    std_error: float
    target: float
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class TwoSampleResult:
    """Result of a two-sample comparison; passes when statistic < critical value.

    For checks that run several subtests, the reported statistic and
    critical value belong to the subtest with the worst margin, so the
    pass/fail decision of the whole check is readable from this one pair.
    """

    statistic: float
    critical_value: float
    n1: int
    n2: int
    functional_description: str

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_value


def ks_critical_value(n1: int, n2: int, level: float = DEFAULT_LEVEL) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def ks_two_sample(x, y, level: float = DEFAULT_LEVEL, description: str = "") -> TwoSampleResult:
    """Two-sample Kolmogorov-Smirnov statistic sup|F1 - F2| with critical value."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < MIN_KS_SAMPLES or y.size < MIN_KS_SAMPLES:
        raise InsufficientSample(
            f"need at least {MIN_KS_SAMPLES} points per sample, got {x.size} and {y.size}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("samples contain NaN or infinite values")
    xs, ys = np.sort(x), np.sort(y)
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    statistic = float(np.abs(cdf_x - cdf_y).max())
    return TwoSampleResult(
        statistic=statistic,
        critical_value=ks_critical_value(xs.size, ys.size, level),
        n1=int(xs.size),
        n2=int(ys.size),
        functional_description=description or f"two-sample KS at level {level:g}",
    )


@dataclass(frozen=True)
class _Subtest:
    name: str
    statistic: float
    threshold: float

    @property
    def margin(self) -> float:
        return self.statistic / self.threshold if self.threshold > 0 else math.inf


def _worst_subtest(subtests: list[_Subtest], n1: int, n2: int) -> TwoSampleResult:
    worst = max(subtests, key=lambda s: s.margin)
    return TwoSampleResult(
        statistic=worst.statistic,
        critical_value=worst.threshold,
        n1=n1,
        n2=n2,
        functional_description=f"{worst.name}; worst margin of {len(subtests)} subtests",
    )


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def _projection_functional(frames: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Re tr(A H H^H) per frame, without materializing the projections."""
    return np.einsum("nji,jk,nki->n", frames.conj(), weight, frames).real


def _bilinear_functional(frames: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re tr(A H B H^H) per frame; not pointwise right-invariant for non-scalar B."""
    inner = np.swapaxes(frames.conj(), 1, 2) @ (left @ frames)
    return np.einsum("nij,ji->n", inner, right).real


def _projections(frames: np.ndarray) -> np.ndarray:
    return np.einsum("nir,njr->nij", frames, frames.conj())


def _compare_frame_samples(
    frames_1: np.ndarray,
    frames_2: np.ndarray,
    rng: np.random.Generator,
    level: float,
    k: float,
    n_functionals: int,
) -> list[_Subtest]:
    """KS on randomized projection functionals plus mean-projection distance."""
    m = frames_1.shape[1]
    n1, n2 = frames_1.shape[0], frames_2.shape[0]
    subtests = []
    per_functional_level = level / n_functionals
    for j in range(n_functionals):
        weight = _random_hermitian(m, rng)
        result = ks_two_sample(
            _projection_functional(frames_1, weight),
            _projection_functional(frames_2, weight),
            level=per_functional_level,
        )
        subtests.append(
            _Subtest(
                f"KS on projection functional {j + 1} (Bonferroni level "
                f"{per_functional_level:g})",
                result.statistic,
                result.critical_value,
            )
        )
    proj_1, proj_2 = _projections(frames_1), _projections(frames_2)
    distance = proj_1.mean(axis=0) - proj_2.mean(axis=0)
    entry_var = (
        (proj_1.real.var(axis=0, ddof=1) + proj_1.imag.var(axis=0, ddof=1)) / n1
        + (proj_2.real.var(axis=0, ddof=1) + proj_2.imag.var(axis=0, ddof=1)) / n2
    )
    std_error = math.sqrt(float(entry_var.sum()))
    subtests.append(
        _Subtest(
            f"mean projection Frobenius distance vs {k:g} SE",
            float(np.linalg.norm(distance)),
            k * std_error + MEAN_CHECK_ATOL,
        )
    )
    return subtests


def normalization_check(
    params: CmacgParams, n: int, rng: np.random.Generator, k: float = DEFAULT_K
) -> VerificationReport:
    """Estimate the integral of the density against uniform draws; target one.

    Uniform importance sampling: with draws from the exact uniform sampler
    the mean of the density values estimates its total mass, which the
    normalization of the density w.r.t. the unit-mass measure fixes at one.
    ``MIN_CHECK_SAMPLES`` draws are recommended for a meaningful standard
    error, but smaller counts are accepted; the degenerate identity and
    square-frame cases are exact at any sample size.
    """
    _require_samples("normalization", n)
    frames = dist.sample_uniform_stiefel_batch(ManifoldDims(params.m, params.r), n, rng)
    values = np.exp(dist.cmacg_log_density_batch(params, frames))
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    passed = abs(estimate - 1.0) <= k * std_error + MEAN_CHECK_ATOL
    return VerificationReport(
        check_name="normalization",
        n_samples=n,
        estimate=estimate,
        std_error=std_error,
        target=1.0,
        verdict="pass" if passed else "fail",
        details={"k": k, "atol": MEAN_CHECK_ATOL, "m": params.m, "r": params.r},
    )


def unitary_invariance_check(
    params: CmacgParams,
    n: int,
    rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
    unitary: np.ndarray | None = None,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> TwoSampleResult:
    """Compare functionals of draws against the same draws right-multiplied.

    Projection functionals are right-invariant pointwise, so that subtest
    must agree to round-off.  Bilinear functionals with a non-scalar inner
    weight are only equal in distribution; they are compared by KS on the
    paired samples, which is conservative under the null and exactly zero
    for the identity unitary.
    """
    _require_samples("unitary_invariance", n)
    m, r = params.m, params.r
    frames = dist.sample_cmacg_batch(params, n, rng)
    if unitary is None:
        unitary = dist.sample_uniform_stiefel_batch(ManifoldDims(r, r), 1, rng)[0]
    rotated = frames @ unitary

    weight = _random_hermitian(m, rng)
    base = _projection_functional(frames, weight)
    turned = _projection_functional(rotated, weight)
    scale = max(1.0, float(np.abs(base).max()))
    subtests = [
        _Subtest(
            "pointwise identity of projection functional",
            float(np.abs(turned - base).max()),
            1e-10 * scale,
        )
    ]
    per_functional_level = level / n_functionals
    for j in range(n_functionals):
        left = _random_hermitian(m, rng)
        right = _random_hermitian(r, rng)
        result = ks_two_sample(
            _bilinear_functional(frames, left, right),
            _bilinear_functional(rotated, left, right),
            level=per_functional_level,
        )
        subtests.append(
            _Subtest(
                f"KS on bilinear functional {j + 1} (paired draws, Bonferroni "
                f"level {per_functional_level:g})",
                result.statistic,
                result.critical_value,
            )
        )
    return _worst_subtest(subtests, n, n)


def _transformed_orientation_batch(
    params: CmacgParams, transform: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Orientations of ``B @ Z`` for normal draws Z, using full draws."""
    normal_params = ComplexMatrixNormalParams(params.cov, params.r)

    def draw(k: int) -> np.ndarray:
        return transform @ dist.sample_complex_matrix_normal_batch(normal_params, k, rng)

    return dist._orient_with_retry(draw(n), draw)


def corollary_check(
    params: CmacgParams,
    transform,
    n: int,
    rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
    k: float = DEFAULT_K,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> TwoSampleResult:
    """Orientations of transformed draws vs direct draws under the new parameter.

    Side one draws full matrices, transforms them and takes orientations;
    side two samples directly with the transformed parameter.  The two
    independent samples are compared by KS on projection functionals and by
    the Frobenius distance of mean projections against its standard error.
    """
    _require_samples("corollary", n)
    transformed_params = dist.transform_parameter(params, transform)
    b = np.asarray(transform, dtype=np.complex128)
    frames_1 = _transformed_orientation_batch(params, b, n, rng)
    frames_2 = dist.sample_cmacg_batch(transformed_params, n, rng)
    return _worst_subtest(
        _compare_frame_samples(frames_1, frames_2, rng, level, k, n_functionals), n, n
    )


def general_class_check(
    params: CmacgParams,
    n: int,
    rng: np.random.Generator,
    mixture_shape: float | None = DEFAULT_MIXTURE_SHAPE,
    mixture_rate: float = DEFAULT_MIXTURE_RATE,
    level: float = DEFAULT_LEVEL,
    k: float = DEFAULT_K,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> TwoSampleResult:
    """Orientations of scale-mixture draws vs direct CMACG draws.

    Side one divides each normal draw by the square root of an independent
    gamma variable, producing a draw whose density depends on the data only
    through the quadratic form in the parameter inverse and is invariant
    under right unitary maps; its orientation must follow the same CMACG
    law.  ``mixture_shape=None`` selects the degenerate mixture (weight one).
    """
    _require_samples("general_class", n)
    if mixture_shape is not None and (mixture_shape <= 0 or mixture_rate <= 0):
        raise ValidationError("mixture shape and rate must be positive")
    normal_params = ComplexMatrixNormalParams(params.cov, params.r)

    def draw(count: int) -> np.ndarray:
        z = dist.sample_complex_matrix_normal_batch(normal_params, count, rng)
        if mixture_shape is None:
            return z
        weights = rng.gamma(shape=mixture_shape, scale=1.0 / mixture_rate, size=count)
        return z / np.sqrt(weights)[:, None, None]

    frames_1 = dist._orient_with_retry(draw(n), draw)
    frames_2 = dist.sample_cmacg_batch(params, n, rng)
    return _worst_subtest(
        _compare_frame_samples(frames_1, frames_2, rng, level, k, n_functionals), n, n
    )


def normal_covariance_check(
    params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator, k: float = DEFAULT_K
) -> VerificationReport:
    """Empirical covariance of the stacked real column vector vs its target.

    The target block matrix is assembled inline from the column covariance,
    independently of the sampler's own construction, so a bug in either side
    surfaces.  Reports the largest entrywise deviation in standard-error
    units; the standard errors use the Gaussian fourth-moment identity under
    the null.
    """
    _require_samples("normal_covariance", n)
    m = params.m
    z = dist.sample_complex_matrix_normal_batch(params, n, rng)
    stacked = np.concatenate([z.real, z.imag], axis=1)
    columns = stacked.transpose(0, 2, 1).reshape(-1, 2 * m)
    empirical = np.cov(columns, rowvar=False, ddof=1)
    cov = params.column_cov.mat
    target = 0.5 * np.block([[cov.real, -cov.imag], [cov.imag, cov.real]])
    n_columns = columns.shape[0]
    diag = np.diag(target)
    std_error = np.sqrt((np.outer(diag, diag) + target**2) / n_columns)
    z_scores = np.abs(empirical - target) / std_error
    worst = int(np.argmax(z_scores))
    max_z = float(z_scores.flat[worst])
    return VerificationReport(
        check_name="normal_covariance",
        n_samples=n,
        estimate=max_z,
        std_error=1.0,
        target=0.0,
        verdict="pass" if max_z <= k else "fail",
        details={
            "k": k,
            "n_column_vectors": int(n_columns),
            "worst_entry": [int(i) for i in np.unravel_index(worst, z_scores.shape)],
        },
    )


CHECK_NAMES = (
    "normalization",
    "unitary_invariance",
    "corollary",
    "general_class",
    "normal_covariance",
)


def default_transform(m: int, rng: np.random.Generator) -> np.ndarray:
    """A deterministic, comfortably nonsingular transform for suite runs."""
    while True:
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        candidate = np.eye(m) + 0.35 * g / math.sqrt(m)
        svals = np.linalg.svd(candidate, compute_uv=False)
        if svals[-1] > 1e-3 * svals[0]:
            return candidate


def run_suite(
    params: CmacgParams,
    n: int = 100000,
    seed: int = 0,
    checks=None,
    level: float = DEFAULT_LEVEL,
    k: float = DEFAULT_K,
    transform=None,
) -> list[tuple[str, VerificationReport | TwoSampleResult]]:
    """Run the selected checks, each on its own stream derived from the seed.

    A check's stream depends only on (seed, its fixed lane index), so a
    check reports identically whether run alone or within the full suite.
    """
    selected = tuple(checks) if checks is not None else CHECK_NAMES
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValidationError(
            f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}"
        )
    for name in selected:  # reject a small n before any check spends time
        _require_samples(name, n)
    results = []
    for name in selected:
        rng = dist.derive_rng(seed, CHECK_NAMES.index(name))
        if name == "normalization":
            outcome = normalization_check(params, n, rng, k=k)
        elif name == "unitary_invariance":
            outcome = unitary_invariance_check(params, n, rng, level=level)
        elif name == "corollary":
            b = transform if transform is not None else default_transform(params.m, rng)
            outcome = corollary_check(params, b, n, rng, level=level, k=k)
        elif name == "general_class":
            outcome = general_class_check(params, n, rng, level=level, k=k)
        else:
            outcome = normal_covariance_check(
                ComplexMatrixNormalParams(params.cov, params.r), n, rng, k=k
            )
        results.append((name, outcome))
    return results
