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

import copy
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

MIXTURE_SHAPE = MIXTURE_RATE = 3.0  # general_class's Gamma(3, 3) weight

# Order statistics per step of the KS scan: bounds its temporaries, not n.
_KS_STRETCH = 1 << 14


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
    """One-sample KS of ``u`` against Uniform(0, 1), which it sorts in place.  The critical
    value is the DKW-Massart bound sqrt(ln(2/level) / (2n)), which sup|F_n - F| exceeds with
    probability at most ``level`` at every n.  F_n jumps from (i - 1)/n to i/n at the i-th
    order statistic, so the gaps on both sides of the jumps give the sup, ties included;
    they are taken a stretch of order statistics at a time, and no n-long array is made."""
    u = np.asarray(u, dtype=float).ravel()
    u.sort()
    if not (np.isfinite(u[0]) and np.isfinite(u[-1])):  # NaN sorts last
        raise ValidationError("sample contains NaN or infinite values")
    n, statistic = u.size, -math.inf
    for start in range(0, n, _KS_STRETCH):
        part = u[start:start + _KS_STRETCH]
        steps = np.arange(start, start + part.size + 1) / n
        statistic = max(statistic, float((steps[1:] - part).max()),
                        float((part - steps[:-1]).max()))
    return _two_sample(description, statistic, math.sqrt(math.log(2.0 / level) / (2 * n)))


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


def _direction_pairs(rng: np.random.Generator, count: int, m: int, r: int):
    """``count`` random unit (e, f), e in C^m and f in C^r: all the e, then all the f."""
    return tuple(_unit_vectors(rng, count, dim) for dim in (m, r))


def _directions(columns: np.ndarray, r: int, lefts: np.ndarray, rights: np.ndarray):
    """||W^H e||^2 and e^H W f, shaped (count, n), for each of ``count`` unit (e, f), the rows
    of ``lefts`` and ``rights``, and each W of a sample laid out as one m x (n r) matrix,
    which one product maps."""
    products = (lefts.conj() @ columns).reshape(len(lefts), -1, r)
    entries = np.einsum("jnk,jk->jn", products, rights)
    spans = np.einsum("jnk,jnk->jn", *[products.view(np.float64)] * 2)
    return spans, entries


def _arg_cdf(entries: np.ndarray) -> np.ndarray:
    return np.angle(entries) / (2 * math.pi) + 0.5


def _kept(blocks: list[slice], staged) -> list[np.ndarray]:
    """The arrays that ``staged`` yields for each of ``blocks``, which cover ``range(n)``, in
    turn, each written into one array for all n draws.  Each is 2-D, with a fixed count of
    values per draw on its last axis."""
    n, whole = blocks[-1].stop, None
    for block, parts in zip(blocks, staged):
        size = block.stop - block.start
        if whole is None:
            whole = [np.empty((len(part), n * part.shape[1] // size)) for part in parts]
        for out, part in zip(whole, parts):
            per_draw = part.shape[1] // size
            out[:, block.start * per_draw:block.stop * per_draw] = part
    return whole


def _walked(params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator):
    """Walk ``rng`` past the normals that ``dist.sample_complex_matrix_normal_batch(params,
    n, rng)`` draws, into one buffer the size of the largest block, and return ``replay``:
    ``replay(stage)``, called once, is ``_kept`` of ``stage(block, z)`` for each block and
    its draws ``z``, drawn again in turn from a copy of ``rng`` taken first: the call's own."""
    blocks = dist.blocks(n, params.m, params.r)
    start = copy.deepcopy(rng)
    skipped = np.empty((max(b.stop - b.start for b in blocks), 2 * params.m, params.r))
    for block in blocks:
        rng.standard_normal(out=skipped[:block.stop - block.start])

    def replay(stage):
        return _kept(blocks, (stage(block, dist.sample_complex_matrix_normal_batch(
            params, block.stop - block.start, start)) for block in blocks))

    return replay


def _ks_subtests(laws: list[tuple[str, str]], uniforms: list[np.ndarray],
                 level: float) -> list[CheckResult]:
    """One KS subtest at the Bonferroni level per law and per row of its 2-D CDF values; the
    rows are directions, named as such where a law has more than one."""
    named = [(f"KS of {functional} against {law}"
              + (f", direction {j + 1}" if len(rows) > 1 else ""), u)
             for (functional, law), rows in zip(laws, uniforms) for j, u in enumerate(rows)]
    level /= len(named)
    return [_ks_uniform(u, level, f"{name} (whitened; Bonferroni level {level:g})")
            for name, u in named]


def _exact_laws(m: int, r: int) -> list[tuple[str, str]]:
    """The marginals of the uniform law that ``_exact_law_cdfs`` tests, in its order."""
    laws = [("||H^H e||^2", f"Beta({r}, {m - r})")] if m > r else []
    if r > 1:
        laws.append(("|e^H H f|^2", f"Beta(1, {m - 1})"))
    laws.append(("arg(e^H H f)", "Uniform(-pi, pi]"))
    return laws


def _exact_law_cdfs(frames: np.ndarray, chol_inv: np.ndarray, lefts: np.ndarray,
                    rights: np.ndarray) -> list[np.ndarray]:
    """The CDF values of a block of a CMACG(L L^H) sample, an (k, m, r) stack, under the
    uniform law's marginals after whitening.  W = L^{-1} H is re-oriented, and each unit
    (e, f), the rows of ``lefts`` and ``rights``, gives ||W^H e||^2 ~ Beta(r, m - r)
    (m > r), |e^H W f|^2 ~ Beta(1, m - 1) (r > 1; at r = 1 it is the first) and
    arg(e^H W f), uniform.  The kernel is called directly, not through the samplers'
    redraw: a whitened row has nothing to redraw, and a block that flags one raises."""
    m, r = frames.shape[1:]
    whitened = chol_inv @ linalg._frame_columns(frames)
    oriented, bad = linalg._orientation_batch(whitened.reshape(m, -1, r).transpose(1, 0, 2))
    if bad.any():
        raise RankDeficient(f"{int(bad.sum())} whitened frames failed the orientation's rank gate")
    spans, entries = _directions(linalg._frame_columns(oriented), r, lefts, rights)
    cdfs = [_beta_cdf(spans, r, m - r)] if m > r else []
    if r > 1:
        cdfs.append(_beta_cdf(entries.real**2 + entries.imag**2, 1, m - 1))
    return cdfs + [_arg_cdf(entries)]


def _exact_law_subtests(
    frames: np.ndarray, chol_inv: np.ndarray, rng: np.random.Generator, level: float,
    count: int,
) -> list[CheckResult]:
    """KS subtests of a CMACG(L L^H) sample in hand, an (n, m, r) stack, against the uniform
    law's marginals after whitening, along ``count`` directions drawn first; the checks
    run ``_exact_law_cdfs`` on their draws as they replay them."""
    n, m, r = frames.shape
    lefts, rights = _direction_pairs(rng, count, m, r)
    blocks = dist.blocks(n, m, r)
    cdfs = _kept(blocks, (_exact_law_cdfs(frames[block], chol_inv, lefts, rights)
                          for block in blocks))
    return _ks_subtests(_exact_laws(m, r), cdfs, level)


def _worst_subtest(name: str, subtests: list[CheckResult], n: int) -> CheckResult:
    """The subtest with the worst margin, reported under the check's name."""
    worst = max(subtests, key=lambda s: s.margin)
    description = f"{worst.name}; worst margin of {len(subtests)} subtests"
    return replace(
        worst, name=name, details={"n_samples": n, "functional_description": description}
    )


def normalization_check(params: CmacgParams, n: int, rng: np.random.Generator) -> CheckResult:
    """Estimate the integral of the density against uniform draws; target one.

    Uniform importance sampling: with draws from the exact uniform sampler
    the mean of the density values estimates its total mass, which the
    normalization of the density w.r.t. the unit-mass measure fixes at one.
    ``MIN_CHECK_SAMPLES`` draws are recommended for a meaningful standard
    error, but smaller counts are accepted; the degenerate identity and
    square-frame cases are exact at any sample size.  Nothing is drawn after
    the sample, so each block is drawn, as one sampler call, and evaluated in
    turn; a rank-deficient draw is redrawn after its block.
    """
    _require_samples("normalization", n)
    uniform = CmacgParams.uniform(ManifoldDims(params.m, params.r))
    blocks = dist.blocks(n, params.m, params.r)
    values = _kept(blocks, ([np.exp(dist.cmacg_log_density_batch(
        params, dist.sample_cmacg_batch(uniform, block.stop - block.start, rng)))[None]]
        for block in blocks))[0][0]
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    statistic = abs(estimate - 1.0)
    threshold = DEFAULT_K * std_error + MEAN_CHECK_ATOL
    return CheckResult(
        "normalization",
        "verification_report",
        statistic,
        threshold,
        "pass" if statistic <= threshold else "fail",
        {"n_samples": n, "estimate": estimate, "std_error": std_error, "target": 1.0,
         "k": DEFAULT_K, "atol": MEAN_CHECK_ATOL, "m": params.m, "r": params.r},
    )


# unitary_invariance, corollary, general_class and normal_covariance draw after their
# sample and hold none of it: each walks the sample's normals with _walked, draws what
# follows them, then replays the sample a block at a time and keeps only the values its
# verdict needs.  A row that the orientation flags is redrawn from ``rng``, which by then
# stands where the check's last draw ended, so no redraw repeats a replayed normal.


def unitary_invariance_check(
    params: CmacgParams, n: int, rng: np.random.Generator, level: float = DEFAULT_LEVEL,
    unitary: np.ndarray | None = None,
) -> CheckResult:
    """Right multiplication by a unitary U, which defaults to a uniform draw.

    ||H^H e||^2 depends only on the projection H H^H, so it must agree for H
    and H U draw by draw, to round-off; a finite r x r ``unitary`` that is
    not unitary fails there.  H U must still follow CMACG(P), which the
    exact-law subtests test; as H comes from the sampler, they test it too.
    """
    _require_samples("unitary_invariance", n)
    m, r = params.m, params.r
    normal_params = ComplexMatrixNormalParams(params.cov, r)
    replay = _walked(normal_params, n, rng)
    if unitary is None:
        unitary = dist.sample_uniform_stiefel_batch(ManifoldDims(r, r), 1, rng)[0]
    unitary = as_complex_matrix(unitary, "unitary")
    if unitary.shape != (r, r):
        raise DimensionMismatch(f"unitary must be {r}x{r}, got {unitary.shape}")
    left = _unit_vectors(rng, 1, m).conj()
    lefts, rights = _direction_pairs(rng, DEFAULT_FUNCTIONALS, m, r)
    peaks = []

    def stage(_, z):
        frames = dist._orient_with_retry(
            z, lambda k: dist.sample_complex_matrix_normal_batch(normal_params, k, rng))
        # e^H H per frame, and e^H (H U) as its product with U; then H -> H U
        before = (left @ linalg._frame_columns(frames)).reshape(-1, r)
        base, turned = (np.einsum("ij,ij->i", x, x.conj()).real for x in (before, before @ unitary))
        peaks.append((base.max(), np.abs(turned - base).max()))
        rotated = (frames.reshape(-1, r) @ unitary).reshape(-1, m, r)
        return _exact_law_cdfs(rotated, params.chol_inv, lefts, rights)

    cdfs = replay(stage)
    base, gap = np.max(peaks, axis=0)
    subtests = [_two_sample("pointwise identity of ||H^H e||^2 under H -> H U",
                            float(gap), 1e-10 * max(1.0, float(base)))]
    subtests += _ks_subtests(_exact_laws(m, r), cdfs, level)
    return _worst_subtest("unitary_invariance", subtests, n)


def corollary_check(
    params: CmacgParams, transform, n: int, rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
) -> CheckResult:
    """Orientations of transformed draws B Z follow CMACG(B P B^H).

    The orientations are whitened by the Cholesky factor of the transformed
    parameter and tested against the uniform law's marginals.
    """
    _require_samples("corollary", n)
    m, r = params.m, params.r
    target = dist.transform_parameter(params, transform)
    b = np.asarray(transform, dtype=np.complex128)
    normal_params = ComplexMatrixNormalParams(params.cov, r)

    def redraw(count: int) -> np.ndarray:
        return b @ dist.sample_complex_matrix_normal_batch(normal_params, count, rng)

    replay = _walked(normal_params, n, rng)
    lefts, rights = _direction_pairs(rng, DEFAULT_FUNCTIONALS, m, r)
    cdfs = replay(lambda _, z: _exact_law_cdfs(
        dist._orient_with_retry(b @ z, redraw), target.chol_inv, lefts, rights))
    return _worst_subtest("corollary", _ks_subtests(_exact_laws(m, r), cdfs, level), n)


def general_class_check(
    params: CmacgParams, n: int, rng: np.random.Generator, level: float = DEFAULT_LEVEL,
) -> CheckResult:
    """Orientations of scale-mixture draws follow CMACG(P).

    Each normal draw is divided by the square root of an independent Gamma(3, 3) weight,
    ``MIXTURE_SHAPE`` and ``MIXTURE_RATE``, producing a draw whose density depends on the
    data only through the quadratic form in the parameter inverse and is invariant under
    right unitary maps.  The n weights, drawn after the normals, are the one value per draw
    held while the sample is replayed.
    """
    _require_samples("general_class", n)
    m, r = params.m, params.r
    normal_params = ComplexMatrixNormalParams(params.cov, r)

    def weights(count: int) -> np.ndarray:
        return rng.gamma(shape=MIXTURE_SHAPE, scale=1.0 / MIXTURE_RATE, size=count)

    def redraw(count: int) -> np.ndarray:
        z = dist.sample_complex_matrix_normal_batch(normal_params, count, rng)
        z /= np.sqrt(weights(count))[:, None, None]
        return z

    replay = _walked(normal_params, n, rng)
    scales = weights(n)
    lefts, rights = _direction_pairs(rng, DEFAULT_FUNCTIONALS, m, r)

    def stage(block, z):
        z /= np.sqrt(scales[block])[:, None, None]
        return _exact_law_cdfs(dist._orient_with_retry(z, redraw), params.chol_inv, lefts, rights)

    cdfs = replay(stage)
    return _worst_subtest("general_class", _ks_subtests(_exact_laws(m, r), cdfs, level), n)


def normal_covariance_check(
    params: ComplexMatrixNormalParams, n: int, rng: np.random.Generator,
    level: float = DEFAULT_LEVEL,
) -> CheckResult:
    """Normal draws whitened by their column covariance a block at a time, W = C^{-1/2} Z,
    have i.i.d. CN(0, 1) entries: |e^H W f|^2 ~ Exp(1) and arg(e^H W f) is uniform for unit
    e and f, and a column's ||w||^2 ~ Gamma(m, 1).  C^{-1/2} is an ``eigh`` factor,
    independent of the sampler's stacked real Cholesky factor, so a wrong factor cannot
    cancel itself out."""
    _require_samples("normal_covariance", n)
    m, r = params.m, params.r
    replay = _walked(params, n, rng)
    inv_sqrt = linalg.hermitian_inv_sqrt(params.column_cov).mat
    lefts, rights = _direction_pairs(rng, DEFAULT_FUNCTIONALS, m, r)

    def stage(_, z):
        columns = inv_sqrt @ linalg._frame_columns(z)
        entries = _directions(columns, r, lefts, rights)[1]
        norms = (columns.real**2 + columns.imag**2).sum(axis=0)
        return [_gamma_cdf(entries.real**2 + entries.imag**2, 1), _arg_cdf(entries),
                _gamma_cdf(norms[None], m)]

    uniforms = replay(stage)
    laws = [("|e^H W f|^2", "Exp(1)"), ("arg(e^H W f)", "Uniform(-pi, pi]"),
            ("||w||^2 of each column", f"Gamma({m}, 1)")]
    return _worst_subtest("normal_covariance", _ks_subtests(laws, uniforms, level), n)


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
    repeated = sorted({name for name in selected if selected.count(name) > 1})
    if repeated:
        raise ValidationError(f"repeated checks {repeated}; each runs at most once")
    _require_level(level)
    for name in selected:
        _require_samples(name, n)
    return selected


def _run_check(name: str, params: CmacgParams, n: int, seed: int, level: float) -> CheckResult:
    """The check ``name`` on its own stream, ``derive_rng(seed, its lane)``, so that it reports
    the same alone, in a suite or on a worker.  Each ``<name>_check`` is read from this module
    at call time, where a patched one is seen."""
    rng = dist.derive_rng(seed, CHECK_NAMES.index(name))
    if name == "normalization":
        return normalization_check(params, n, rng)
    if name == "unitary_invariance":
        return unitary_invariance_check(params, n, rng, level=level)
    if name == "corollary":
        return corollary_check(params, default_transform(params.m, rng), n, rng, level=level)
    if name == "general_class":
        return general_class_check(params, n, rng, level=level)
    return normal_covariance_check(
        ComplexMatrixNormalParams(params.cov, params.r), n, rng, level=level
    )


def run_suite(
    params: CmacgParams, n: int = DEFAULT_SAMPLES, seed: int = 0, checks=None,
    level: float = DEFAULT_LEVEL,
) -> list[tuple[str, CheckResult]]:
    """Run the selected checks in order, each on its own stream derived from the seed."""
    return [(name, _run_check(name, params, n, seed, level))
            for name in select_checks(checks, n, level)]
