"""Monte Carlo verification harness.

Each distributional theorem behind the CMACG machinery becomes a seeded
statistical check that judges one statistic against a threshold and
returns a ``CheckResult``:

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

Distributions on the manifold are compared through randomized functionals
Re tr(A H B H^H), Bonferroni-corrected; with B = I they depend only on the
projection H H^H, hence on the subspace.  Each sample is laid out once, as
one m x (n r) matrix on which every functional takes one matrix product per
weight; the mean-projection subtest needs only m x m and r x r sums, so
memory grows with n*m*r, not n*m^2.  Each subtest is a two-sample
``CheckResult``, and the check reports the worst margin.  Mean-based verdicts use
|estimate - target| <= k * SE + atol; the small absolute floor covers
degenerate cases whose integrand is deterministic and the SE vanishes.

Every check is deterministic given its inputs and generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import distributions as dist
from . import linalg
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


def _require_level(level: float) -> None:
    if not 0.0 < level < 1.0:  # false for NaN as well
        raise ValidationError(f"level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a check or subtest: a statistic judged against a threshold.

    The check that builds it decides ``verdict`` by its own rule, which
    ``kind`` names: a ``"verification_report"`` passes at statistic <=
    threshold, a ``"two_sample"`` comparison only at statistic < threshold.
    ``details`` carries whatever else the check measured.
    """

    name: str
    kind: str
    statistic: float
    threshold: float
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def margin(self) -> float:
        return self.statistic / self.threshold if self.threshold > 0 else math.inf


def _two_sample(name: str, statistic: float, threshold: float, **details) -> CheckResult:
    verdict = "pass" if statistic < threshold else "fail"
    return CheckResult(name, "two_sample", statistic, threshold, verdict, details)


def ks_critical_value(n1: int, n2: int, level: float = DEFAULT_LEVEL) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value."""
    _require_level(level)
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def ks_two_sample(x, y, level: float = DEFAULT_LEVEL, description: str = "") -> CheckResult:
    """Two-sample Kolmogorov-Smirnov statistic sup|F1 - F2| against its critical value."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < MIN_KS_SAMPLES or y.size < MIN_KS_SAMPLES:
        raise InsufficientSample(
            f"need at least {MIN_KS_SAMPLES} points per sample, got {x.size} and {y.size}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("samples contain NaN or infinite values")
    xs, ys = np.sort(x), np.sort(y)
    return _two_sample(
        description or f"two-sample KS at level {level:g}",
        max(_cdf_gap(xs, ys), _cdf_gap(ys, xs)),
        ks_critical_value(xs.size, ys.size, level),
        n1=int(xs.size),
        n2=int(ys.size),
    )


def _cdf_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |F_a - F_b| over sorted ``a``, its CDF from its tie groups, b's from a search."""
    ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
    gaps = (ends + 1) / a.size - np.searchsorted(b, a[ends], side="right") / b.size
    return float(np.abs(gaps).max())


def _worst_subtest(name: str, subtests: list[CheckResult], n: int) -> CheckResult:
    """The subtest with the worst margin, reported under the check's name."""
    worst = max(subtests, key=lambda s: s.margin)
    description = f"{worst.name}; worst margin of {len(subtests)} subtests"
    return replace(
        worst, name=name, details={"n1": n, "n2": n, "functional_description": description}
    )


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def _laid_out(frames: np.ndarray) -> np.ndarray:
    """The frames as an (n, m, r) view of one m x (n r) matrix, which the kernels read as is."""
    n, m, r = frames.shape
    return linalg._frame_columns(frames).reshape(m, n, r).transpose(1, 0, 2)


def _functionals(frames: np.ndarray, lefts, rights=None) -> np.ndarray:
    """Re tr(A_j H B_j H^H) per frame, shaped (J, n), each A_j and B_j in one product.

    ``rights=None`` means B_j = I, the projection functional: right-invariant
    draw by draw (a non-scalar B makes it so only in distribution).  Each
    product is released before the next is formed, which bounds the memory.
    """
    n, m, r = frames.shape
    t = linalg._frame_columns(frames)
    values = np.empty((len(lefts), n))
    for j, left in enumerate(lefts):
        weighted = left @ t
        if rights is not None:
            weighted = weighted.reshape(m * n, r) @ rights[j]
        products = weighted.view(np.float64).reshape(m, n, 2 * r)
        products *= t.view(np.float64).reshape(m, n, 2 * r)
        values[j] = products.sum(axis=(0, 2))
        del weighted, products
    return values


def _ks_subtests(kind: str, first, second, level: float, note: str = "") -> list[CheckResult]:
    """KS of each row of ``first`` against the same row of ``second``, at the Bonferroni level."""
    return [ks_two_sample(x, y, level, f"KS on {kind} functional {j + 1} ({note}Bonferroni "
                          f"level {level:g})") for j, (x, y) in enumerate(zip(first, second))]


def _projection_moments(frames: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean of H H^H and its summed entry variance (ddof 1), with no (n, m, m) array.

    sum_ij |(H H^H)_ij|^2 = ||H^H H||_F^2 needs only the r x r Grams.  The
    variance is clamped at zero: at m = r it is a difference of equal terms.
    """
    n, _, r = frames.shape
    t = linalg._frame_columns(frames)
    mean = t @ t.conj().T / n
    if r > 2:
        grams = np.swapaxes(frames.conj(), 1, 2) @ frames
        squares = np.vdot(grams, grams).real
    else:
        diag, cross = linalg._small_gram(frames)
        squares = np.vdot(diag, diag) + (2 * np.vdot(cross, cross).real if r == 2 else 0.0)
    variance = (squares - n * np.vdot(mean, mean).real) / (n - 1)
    return mean, max(float(variance), 0.0)


def _two_sample_check(
    name: str, draw, params: CmacgParams, n: int, rng: np.random.Generator,
    level: float, k: float, n_functionals: int,
) -> CheckResult:
    """Orientations of ``draw(n)`` against n direct CMACG(params) draws.

    KS on randomized projection functionals, Bonferroni-corrected, and the
    Frobenius distance of the mean projections against its standard error.
    """
    frames = [_laid_out(dist._orient_with_retry(draw(n), draw))]
    frames.append(_laid_out(dist.sample_cmacg_batch(params, n, rng)))
    weights = [_random_hermitian(params.m, rng) for _ in range(n_functionals)]
    values = [_functionals(side, weights) for side in frames]
    subtests = _ks_subtests("projection", *values, level / n_functionals)
    (mean_1, var_1), (mean_2, var_2) = (_projection_moments(side) for side in frames)
    threshold = k * math.sqrt((var_1 + var_2) / n) + MEAN_CHECK_ATOL
    subtests.append(_two_sample(f"mean projection Frobenius distance vs {k:g} SE",
                                float(np.linalg.norm(mean_1 - mean_2)), threshold))
    return _worst_subtest(name, subtests, n)


def normalization_check(
    params: CmacgParams, n: int, rng: np.random.Generator, k: float = DEFAULT_K
) -> CheckResult:
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
    statistic = abs(estimate - 1.0)
    threshold = k * std_error + MEAN_CHECK_ATOL
    return CheckResult(
        "normalization",
        "verification_report",
        statistic,
        threshold,
        "pass" if statistic <= threshold else "fail",
        {"n_samples": n, "estimate": estimate, "std_error": std_error, "target": 1.0,
         "k": k, "atol": MEAN_CHECK_ATOL, "m": params.m, "r": params.r},
    )


def unitary_invariance_check(
    params: CmacgParams,
    n: int,
    rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
    unitary: np.ndarray | None = None,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> CheckResult:
    """Compare functionals of draws against the same draws right-multiplied.

    Projection functionals are right-invariant pointwise, so that subtest
    must agree to round-off.  Bilinear functionals with a non-scalar inner
    weight are only equal in distribution; they are compared by KS on the
    paired samples, which is conservative under the null and exactly zero
    for the identity unitary.  At r = 1 a real scalar B adds nothing to the
    pointwise subtest, which is then the whole check.
    """
    _require_samples("unitary_invariance", n)
    m, r = params.m, params.r
    frames = _laid_out(dist.sample_cmacg_batch(params, n, rng))
    if unitary is None:
        unitary = dist.sample_uniform_stiefel_batch(ManifoldDims(r, r), 1, rng)[0]
    # H U for every frame: one product on the rows of the laid-out frames
    rotated = linalg._frame_columns(frames).reshape(m * n, r) @ unitary
    rotated = rotated.reshape(m, n, r).transpose(1, 0, 2)

    weight = _random_hermitian(m, rng)
    pairs = [(_random_hermitian(m, rng), _random_hermitian(r, rng))
             for _ in range(n_functionals if r > 1 else 0)]
    lefts, rights = zip((weight, np.eye(r)), *pairs)
    base, turned = (_functionals(side, lefts, rights) for side in (frames, rotated))
    pointwise = float(np.abs(turned[0] - base[0]).max())
    threshold = 1e-10 * max(1.0, float(np.abs(base[0]).max()))
    subtests = [_two_sample("pointwise identity of projection functional", pointwise, threshold)]
    level /= n_functionals
    subtests += _ks_subtests("bilinear", base[1:], turned[1:], level, "paired draws, ")
    return _worst_subtest("unitary_invariance", subtests, n)


def corollary_check(
    params: CmacgParams,
    transform,
    n: int,
    rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
    k: float = DEFAULT_K,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> CheckResult:
    """Orientations of transformed draws vs direct draws under the new parameter.

    Side one draws full matrices, transforms them and takes orientations;
    side two samples directly with the transformed parameter, and
    ``_two_sample_check`` compares the two independent samples.
    """
    _require_samples("corollary", n)
    target = dist.transform_parameter(params, transform)
    b = np.asarray(transform, dtype=np.complex128)
    normal_params = ComplexMatrixNormalParams(params.cov, params.r)

    def draw(count: int) -> np.ndarray:
        return b @ dist.sample_complex_matrix_normal_batch(normal_params, count, rng)

    return _two_sample_check("corollary", draw, target, n, rng, level, k, n_functionals)


def general_class_check(
    params: CmacgParams,
    n: int,
    rng: np.random.Generator,
    mixture_shape: float | None = DEFAULT_MIXTURE_SHAPE,
    mixture_rate: float = DEFAULT_MIXTURE_RATE,
    level: float = DEFAULT_LEVEL,
    k: float = DEFAULT_K,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> CheckResult:
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

    return _two_sample_check("general_class", draw, params, n, rng, level, k, n_functionals)


def normal_covariance_check(
    params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator, k: float = DEFAULT_K
) -> CheckResult:
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
    return CheckResult(
        "normal_covariance",
        "verification_report",
        max_z,
        k,
        "pass" if max_z <= k else "fail",
        {
            "n_samples": n,
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
) -> list[tuple[str, CheckResult]]:
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
    _require_level(level)  # reject bad input before any check spends time
    for name in selected:
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
