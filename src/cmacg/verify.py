"""Monte Carlo verification harness.

Each distributional theorem behind the CMACG machinery becomes a seeded
statistical check that judges one statistic against a threshold and
returns a ``CheckResult``:

- ``normalization_check``: the density integrates to one against uniform
  draws (uniform importance sampling; the uniform sampler is exact).
- ``unitary_invariance_check``: right multiplication by a fixed unitary
  keeps the projection draw by draw, and the rotated draws follow CMACG(P).
- ``corollary_check``: orientations of left-transformed draws follow CMACG
  under the transformed parameter.
- ``general_class_check``: orientations of scale-mixture draws follow CMACG.
- ``normal_covariance_check``: normal draws whitened by their column
  covariance have i.i.d. CN(0, 1) entries.

The other four checks test one sample against an exact law: CN(0, 1) for
whitened normal draws, or, if H ~ CMACG(P) and P = L L^H, the uniform law of
the orientation of L^{-1} H on the Stiefel manifold (Chikuse, Statistics on
Special Manifolds, 2003).  Each marginal is tested by a one-sample KS test
against the DKW-Massart bound (Massart, Ann. Probab. 1990), Bonferroni-
corrected, and the check reports the worst margin.  ``normalization`` uses
|estimate - 1| <= k * SE + atol; the small absolute floor covers
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
from .errors import DimensionMismatch, InsufficientSample, RankDeficient, ValidationError
from .linalg import as_complex_matrix, hermitian_part  # noqa: F401 - kept as verify.hermitian_part
from .special import ManifoldDims

DEFAULT_K = 4.0
DEFAULT_LEVEL = 0.01
DEFAULT_FUNCTIONALS = 3
# Round-off allowance for checks whose integrand is exactly constant.
MEAN_CHECK_ATOL = 1e-9

MIN_CHECK_SAMPLES = 10000
DEFAULT_SAMPLES = 100000
MIN_KS_SAMPLES = 100

DEFAULT_MIXTURE_SHAPE = 3.0
DEFAULT_MIXTURE_RATE = 3.0


def _require_samples(check: str, n: int) -> None:
    minimum = 1 if check == "normalization" else MIN_CHECK_SAMPLES
    if n < minimum:
        raise InsufficientSample(f"need n >= {minimum}, got {n}")


def _require_level(level: float) -> None:
    if not 0.0 < level < 1.0:  # false for NaN as well
        raise ValidationError(f"level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a check or subtest: a statistic judged against a threshold.

    The check that builds it decides ``verdict`` by its own rule, which
    ``kind`` names: a ``"verification_report"`` passes at statistic <=
    threshold, a ``"two_sample"`` one (a KS test or a pointwise identity)
    only at statistic < threshold.  ``details`` carries whatever else the
    check measured.
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


def _ks_uniform(u, level: float, description: str) -> CheckResult:
    """One-sample KS of ``u`` against Uniform(0, 1).  The critical value is the DKW-Massart
    bound sqrt(ln(2/level) / (2n)), which sup|F_n - F| exceeds with probability at most
    ``level`` at every n.  F_n jumps from (i - 1)/n to i/n at the i-th order statistic, so
    the gaps on both sides of the jumps give the sup, ties included."""
    u = np.sort(np.asarray(u, dtype=float).ravel())
    if not np.all(np.isfinite(u)):
        raise ValidationError("sample contains NaN or infinite values")
    steps = np.arange(u.size + 1) / u.size
    statistic = max(float((steps[1:] - u).max()), float((u - steps[:-1]).max()))
    return _two_sample(description, statistic, math.sqrt(math.log(2.0 / level) / (2 * u.size)))


def _beta_cdf(x, a: int, b: int) -> np.ndarray:
    """I_x(a, b) = P(Bin(a + b - 1, x) >= a) for integers a, b >= 1, by terms taken in log space."""
    x = np.clip(x, 0.0, 1.0)
    trials = a + b - 1
    with np.errstate(divide="ignore"):
        log_x, log_rest = np.log(x), np.log1p(-x)
    del x  # one array fewer alive while the terms are summed
    return sum(np.exp(math.log(math.comb(trials, k)) + k * log_x
                      + ((trials - k) * log_rest if k < trials else 0.0))
               for k in range(a, trials + 1))


def _gamma_cdf(x, a: int) -> np.ndarray:
    """P(a, x) = P(Poisson(x) >= a) for x >= 0 and integer a >= 1, by terms taken in log space."""
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    return -np.expm1(-x) - sum(np.exp(k * log_x - x - math.log(math.factorial(k)))
                               for k in range(1, a))


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _ks_subtests(laws: list[tuple[str, str, np.ndarray]], level: float) -> list[CheckResult]:
    """One KS subtest at the Bonferroni level per law and per row (direction) of its CDF values."""
    named = []
    for functional, law, uniforms in laws:
        name = f"KS of {functional} against {law}"
        named += ([(f"{name}, direction {j + 1}", u) for j, u in enumerate(uniforms)]
                  if np.ndim(uniforms) > 1 else [(name, uniforms)])
    level /= len(named)
    return [_ks_uniform(u, level, f"{name} (whitened; Bonferroni level {level:g})")
            for name, u in named]


def _exact_law_subtests(
    columns: np.ndarray, r: int, chol_inv: np.ndarray, rng: np.random.Generator,
    level: float, n_functionals: int,
) -> list[CheckResult]:
    """KS subtests of a CMACG(L L^H) sample, laid out as one m x (n r) matrix, against the
    uniform law's marginals after whitening.  Each of ``n_functionals`` random directions
    (e, f) gives ||H^H e||^2 ~ Beta(r, m - r) (m > r), |e^H H f|^2 ~ Beta(1, m - 1)
    (r > 1; at r = 1 it is the first) and arg(e^H H f), uniform.

    The sample is whitened in place, W = L^{-1} H, so no second copy of it is alive while
    the orientation kernel reads W's transposed view.  That kernel is called directly,
    not through the samplers' redraw: a whitened row has nothing to redraw."""
    m, n = columns.shape[0], columns.shape[1] // r
    columns[...] = chol_inv @ columns
    frames, bad = linalg._orientation_batch(columns.reshape(m, n, r).transpose(1, 0, 2))
    del columns
    if bad.any():
        raise RankDeficient(f"{int(bad.sum())} whitened frames failed the orientation's rank gate")
    lefts, rights = _unit_vectors(rng, n_functionals, m), _unit_vectors(rng, n_functionals, r)
    # e_j^H H for every frame and direction j, one product on the frames' layout
    products = (lefts.conj() @ linalg._frame_columns(frames)).reshape(n_functionals, n, r)
    del frames
    entries, laws = np.einsum("jnk,jk->jn", products, rights), []
    if m > r:
        spans = np.einsum("jnk,jnk->jn", *[products.view(np.float64)] * 2)
        laws.append(("||H^H e||^2", f"Beta({r}, {m - r})", _beta_cdf(spans, r, m - r)))
    if r > 1:
        moduli = entries.real**2 + entries.imag**2
        laws.append(("|e^H H f|^2", f"Beta(1, {m - 1})", _beta_cdf(moduli, 1, m - 1)))
    laws.append(("arg(e^H H f)", "Uniform(-pi, pi]", np.angle(entries) / (2 * math.pi) + 0.5))
    return _ks_subtests(laws, level)


def _worst_subtest(name: str, subtests: list[CheckResult], n: int) -> CheckResult:
    """The subtest with the worst margin, reported under the check's name."""
    worst = max(subtests, key=lambda s: s.margin)
    description = f"{worst.name}; worst margin of {len(subtests)} subtests"
    return replace(
        worst, name=name, details={"n_samples": n, "functional_description": description}
    )


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
    """Right multiplication by a unitary U, which defaults to a uniform draw.

    ||H^H e||^2 depends only on the projection H H^H, so it must agree for H
    and H U draw by draw, to round-off; a finite r x r ``unitary`` that is
    not unitary fails there.  H U must still follow CMACG(P), which the
    exact-law subtests test; as H comes from the sampler, they test it too.
    """
    _require_samples("unitary_invariance", n)
    m, r = params.m, params.r
    columns = linalg._frame_columns(dist.sample_cmacg_batch(params, n, rng))
    if unitary is None:
        unitary = dist.sample_uniform_stiefel_batch(ManifoldDims(r, r), 1, rng)[0]
    unitary = as_complex_matrix(unitary, "unitary")
    if unitary.shape != (r, r):
        raise DimensionMismatch(f"unitary must be {r}x{r}, got {unitary.shape}")
    # e^H H per frame, and e^H (H U) as its product with U
    before = (_unit_vectors(rng, 1, m).conj() @ columns).reshape(n, r)
    base, turned = (np.einsum("ij,ij->i", x, x.conj()).real for x in (before, before @ unitary))
    threshold = 1e-10 * max(1.0, float(base.max()))
    subtests = [_two_sample("pointwise identity of ||H^H e||^2 under H -> H U",
                            float(np.abs(turned - base).max()), threshold)]
    del before, base, turned  # not to be alive while the exact-law subtests run
    # H U for every frame, one product on the laid-out rows; H is released
    columns = (columns.reshape(m * n, r) @ unitary).reshape(m, n * r)
    subtests += _exact_law_subtests(columns, r, params.chol_inv, rng, level, n_functionals)
    return _worst_subtest("unitary_invariance", subtests, n)


def corollary_check(
    params: CmacgParams,
    transform,
    n: int,
    rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> CheckResult:
    """Orientations of transformed draws B Z follow CMACG(B P B^H).

    The orientations are whitened by the Cholesky factor of the transformed
    parameter and tested against the uniform law's marginals.
    """
    _require_samples("corollary", n)
    target = dist.transform_parameter(params, transform)
    b = np.asarray(transform, dtype=np.complex128)
    normal_params = ComplexMatrixNormalParams(params.cov, params.r)

    def draw(count: int) -> np.ndarray:
        return b @ dist.sample_complex_matrix_normal_batch(normal_params, count, rng)

    columns = linalg._frame_columns(dist._orient_with_retry(draw(n), draw))
    subtests = _exact_law_subtests(columns, params.r, target.chol_inv, rng, level, n_functionals)
    return _worst_subtest("corollary", subtests, n)


def general_class_check(
    params: CmacgParams,
    n: int,
    rng: np.random.Generator,
    mixture_shape: float | None = DEFAULT_MIXTURE_SHAPE,
    mixture_rate: float = DEFAULT_MIXTURE_RATE,
    level: float = DEFAULT_LEVEL,
    n_functionals: int = DEFAULT_FUNCTIONALS,
) -> CheckResult:
    """Orientations of scale-mixture draws follow CMACG(P).

    Each normal draw is divided by the square root of an independent gamma
    variable, producing a draw whose density depends on the data only
    through the quadratic form in the parameter inverse and is invariant
    under right unitary maps.  ``mixture_shape=None`` selects the degenerate
    mixture (weight one).
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

    columns = linalg._frame_columns(dist._orient_with_retry(draw(n), draw))
    subtests = _exact_law_subtests(columns, params.r, params.chol_inv, rng, level, n_functionals)
    return _worst_subtest("general_class", subtests, n)


def normal_covariance_check(
    params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
) -> CheckResult:
    """Normal draws whitened in place by their column covariance, W = C^{-1/2} Z, have i.i.d.
    CN(0, 1) entries: |e^H W f|^2 ~ Exp(1) and arg(e^H W f) is uniform for unit e and f, and a
    column's ||w||^2 ~ Gamma(m, 1).  C^{-1/2} is an ``eigh`` factor, independent of the
    sampler's stacked real Cholesky factor, so a wrong factor cannot cancel itself out."""
    _require_samples("normal_covariance", n)
    columns = linalg._frame_columns(dist.sample_complex_matrix_normal_batch(params, n, rng))
    columns[...] = linalg.hermitian_inv_sqrt(params.column_cov).mat @ columns
    lefts, rights = (_unit_vectors(rng, DEFAULT_FUNCTIONALS, dim) for dim in (params.m, params.r))
    entries = np.einsum("jnk,jk->jn", (lefts.conj() @ columns).reshape(len(lefts), n, -1), rights)
    norms = (columns.real**2 + columns.imag**2).sum(axis=0)
    laws = [("|e^H W f|^2", "Exp(1)", _gamma_cdf(entries.real**2 + entries.imag**2, 1)),
            ("arg(e^H W f)", "Uniform(-pi, pi]", np.angle(entries) / (2 * math.pi) + 0.5),
            ("||w||^2 of each column", f"Gamma({params.m}, 1)", _gamma_cdf(norms, params.m))]
    return _worst_subtest("normal_covariance", _ks_subtests(laws, level), n)


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


def select_checks(
    checks=None, n: int = DEFAULT_SAMPLES, level: float = DEFAULT_LEVEL
) -> tuple[str, ...]:
    """The checks to run, in order (all by default), once the names, ``n`` and ``level`` are
    validated: bad input is rejected before any check spends time."""
    selected = tuple(checks) if checks is not None else CHECK_NAMES
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValidationError(
            f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}"
        )
    _require_level(level)
    for name in selected:
        _require_samples(name, n)
    return selected


def run_suite(
    params: CmacgParams,
    n: int = DEFAULT_SAMPLES,
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
    results = []
    for name in select_checks(checks, n, level):
        rng = dist.derive_rng(seed, CHECK_NAMES.index(name))
        if name == "normalization":
            outcome = normalization_check(params, n, rng, k=k)
        elif name == "unitary_invariance":
            outcome = unitary_invariance_check(params, n, rng, level=level)
        elif name == "corollary":
            b = transform if transform is not None else default_transform(params.m, rng)
            outcome = corollary_check(params, b, n, rng, level=level)
        elif name == "general_class":
            outcome = general_class_check(params, n, rng, level=level)
        else:
            outcome = normal_covariance_check(
                ComplexMatrixNormalParams(params.cov, params.r), n, rng, level=level
            )
        results.append((name, outcome))
    return results
