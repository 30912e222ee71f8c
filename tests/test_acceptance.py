"""Acceptance suite.

Every target here is fixed by a distributional identity, not by tuning:
the density integrates to one, degenerate cases are exactly flat, the two
evaluation routes for transformed draws agree, sampler constructions match
their stated covariances, and deliberately injected bugs must be caught.
One summary line prints per criterion.
"""

import time

import numpy as np

from cmacg import (
    CmacgParams,
    ComplexMatrixNormalParams,
    ManifoldDims,
    cmacg_log_density,
    cmacg_log_density_of_transformed,
    corollary_check,
    derive_rng,
    general_class_check,
    hermitian_sqrt_eig,
    hermitian_sqrt_newton,
    log_cmv_gamma,
    log_stiefel_volume,
    normal_covariance_check,
    normalization_check,
    run_suite,
    transform_parameter,
)
import cmacg.cli as cli
import cmacg.distributions as dist
import cmacg.serialization as ser
from cmacg.linalg import HermitianPD
from conftest import random_frame, random_hpd, random_unitary

MASTER_SEED = 0


def report(number, description, ok):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_transform(rng, m, strength=0.4):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.eye(m) + strength * g / np.sqrt(m)


def test_criterion_1_normalization():
    cases = {(2, 1): [2.0, 1.0], (3, 1): [3.0, 2.0, 1.0],
             (3, 2): [3.0, 2.0, 1.0], (4, 2): [4.0, 3.0, 2.0, 1.0]}
    n = 200000
    ok = True
    for index, ((m, r), diag) in enumerate(cases.items()):
        started = time.perf_counter()
        params = CmacgParams(np.diag(diag).astype(complex), r)
        rep = normalization_check(params, n, derive_rng(MASTER_SEED, 100, index))
        elapsed = time.perf_counter() - started
        ok &= rep.passed and abs(rep.details["estimate"] - 1.0) <= 4.0 * rep.details["std_error"]
        ok &= elapsed <= 60.0
    report(1, f"density normalizes to 1 within 4 SE over {n} uniform draws, "
              "4 dimension pairs, <= 60 s each", ok)


def test_criterion_2_exact_degeneracies():
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 7))
        r = int(rng.integers(1, m + 1))
        params = CmacgParams.uniform(ManifoldDims(m, r))
        worst = max(worst, abs(cmacg_log_density(params, random_frame(rng, m, r))))
    for _ in range(500):
        m = int(rng.integers(1, 6))
        params = CmacgParams(random_hpd(rng, m, 50.0), m)
        worst = max(worst, abs(cmacg_log_density(params, random_unitary(rng, m))))
    report(2, f"identity-parameter and square-frame log-densities are 0 "
              f"(worst {worst:.2e} <= 1e-12, 1000 inputs)", worst <= 1e-12)


def test_criterion_3_invariance_identities():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m + 1))
        cov = random_hpd(rng, m, 20.0)
        frame = random_frame(rng, m, r)
        unitary = random_unitary(rng, r)
        base = cmacg_log_density(CmacgParams(cov, r), frame)
        worst = max(worst, abs(cmacg_log_density(CmacgParams(cov, r), frame @ unitary) - base))
        for c in (1e-3, 1.0, 1e3):
            worst = max(worst, abs(cmacg_log_density(CmacgParams(c * cov, r), frame) - base))
    report(3, f"right-unitary invariance and scale indeterminacy pointwise "
              f"(worst {worst:.2e} <= 1e-10, 1000 tuples)", worst <= 1e-10)


def test_criterion_4_corollary_equivalence():
    started = time.perf_counter()
    n = 100000
    ok = True
    for dim_index, (m, r) in enumerate([(3, 1), (3, 2)]):
        for pair in range(5):
            rng = np.random.default_rng((MASTER_SEED + 4, dim_index, pair))
            params = CmacgParams(random_hpd(rng, m, 8.0), r)
            b = random_transform(rng, m)
            result = corollary_check(params, b, n, derive_rng(MASTER_SEED, 400, dim_index, pair))
            ok &= result.passed
    worst = 0.0
    rng = np.random.default_rng(MASTER_SEED + 44)
    for index in range(1000):
        m, r = (3, 1) if index % 2 == 0 else (3, 2)
        params = CmacgParams(random_hpd(rng, m, 10.0), r)
        b = random_transform(rng, m)
        frame = random_frame(rng, m, r)
        literal = cmacg_log_density_of_transformed(params, b, frame)
        direct = cmacg_log_density(transform_parameter(params, b), frame)
        worst = max(worst, abs(literal - direct))
    ok &= worst <= 1e-9
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 300.0
    report(4, f"transformed-draw orientations match the transformed parameter: "
              f"10 two-sample runs at n={n}, literal-vs-direct density worst "
              f"{worst:.2e} <= 1e-9, {elapsed:.0f}s <= 300s", ok)


def test_criterion_5_general_class():
    n = 100000
    generic = CmacgParams(np.diag([2.0, 1.0]).astype(complex), 1)
    uniform = CmacgParams.uniform(ManifoldDims(2, 1))
    first = general_class_check(generic, n, derive_rng(MASTER_SEED, 500))
    second = general_class_check(uniform, n, derive_rng(MASTER_SEED, 501))
    ok = first.passed and second.passed
    report(5, f"gamma scale-mixture orientations match direct draws "
              f"(generic and uniform parameters, n={n} per side)", ok)


def test_criterion_6_complex_normal_construction():
    n = 200000
    ok = True
    for index, cov in enumerate(
        [np.eye(2, dtype=complex), np.array([[2.0, 1j], [-1j, 2.0]])]
    ):
        params = ComplexMatrixNormalParams(cov, 1)
        # the check's own draw: it is the first thing the check takes from its stream
        z = dist.sample_complex_matrix_normal_batch(params, n, derive_rng(MASTER_SEED, 600, index))
        columns = np.concatenate([z.real, z.imag], axis=1).transpose(0, 2, 1).reshape(-1, 4)
        empirical = np.cov(columns, rowvar=False, ddof=1)
        target = 0.5 * np.block([[cov.real, -cov.imag], [cov.imag, cov.real]])
        # Gaussian fourth moments: an entry's variance is (t_ii t_jj + t_ij^2) / n
        std_error = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / len(columns))
        rep = normal_covariance_check(params, n, derive_rng(MASTER_SEED, 600, index))
        ok &= rep.passed and bool((np.abs(empirical - target) / std_error).max() <= 4.0)
    report(6, f"stacked real covariance matches the half-block target within "
              f"4 SE entrywise at n={n}, including a complex parameter", ok)


def test_criterion_7_square_root_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 7)
    worst_gap, worst_residual = 0.0, 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 11))
        cond = 10.0 ** rng.uniform(0.0, 8.0)
        hpd = HermitianPD(random_hpd(rng, dim, cond))
        scale = max(1.0, np.abs(hpd.mat).max())
        newton = hermitian_sqrt_newton(hpd, tol=1e-10)
        oracle = hermitian_sqrt_eig(hpd)
        worst_gap = max(worst_gap, np.abs(newton.mat - oracle.mat).max() / scale)
        worst_residual = max(
            worst_residual, np.abs(newton.mat @ newton.mat - hpd.mat).max() / scale
        )
    ok = worst_gap <= 1e-8 and worst_residual <= 1e-10
    report(7, f"newton and eigendecomposition square roots agree "
              f"(worst gap {worst_gap:.2e} <= 1e-8, worst residual "
              f"{worst_residual:.2e} <= 1e-10, 1000 matrices)", ok)


def test_criterion_8_special_functions():
    worst = 0.0
    for r in range(1, 7):
        for a in np.arange(r - 1 + 0.25, 20.0, 0.25):
            lhs = log_cmv_gamma(r, float(a) + 1.0) - log_cmv_gamma(r, float(a))
            rhs = sum(np.log(a - i + 1) for i in range(1, r + 1))
            worst = max(worst, abs(lhs - rhs))
    circle = abs(np.exp(log_stiefel_volume(ManifoldDims(1, 1))) - 2 * np.pi)
    sphere = abs(np.exp(log_stiefel_volume(ManifoldDims(2, 1))) - 2 * np.pi**2)
    ok = (
        worst <= 1e-10
        and circle <= 1e-12 * 2 * np.pi
        and sphere <= 1e-12 * 2 * np.pi**2
    )
    report(8, f"multivariate gamma recurrence (worst {worst:.2e} <= 1e-10) and "
              "closed-form volumes to 1e-12 relative", ok)


def test_criterion_9_mutation_sensitivity(monkeypatch):
    n = 100000
    params = CmacgParams(np.diag([3.0, 2.0, 1.0]).astype(complex), 2)

    # bug one: drop one power of the inner determinant in the density
    real_density = dist.cmacg_log_density_batch

    def exponent_bug(p, frames):
        good = real_density(p, frames)
        inner_logdet = -(good + p.r * p.logdet_cov) / p.m
        return good + inner_logdet

    monkeypatch.setattr(dist, "cmacg_log_density_batch", exponent_bug)
    buggy_density_results = run_suite(params, n=n, seed=MASTER_SEED)
    caught_density_bug = any(not outcome.passed for _, outcome in buggy_density_results)
    monkeypatch.setattr(dist, "cmacg_log_density_batch", real_density)

    # bug two: drop the half in the stacked real covariance
    def covariance_bug(column_cov):
        re, im = column_cov.mat.real, column_cov.mat.imag
        return np.block([[re, -im], [im, re]])

    monkeypatch.setattr(dist, "stacked_real_covariance", covariance_bug)
    buggy_cov_results = run_suite(params, n=n, seed=MASTER_SEED)
    caught_cov_bug = any(not outcome.passed for _, outcome in buggy_cov_results)

    report(9, f"suite flags an injected density-exponent bug "
              f"({'caught' if caught_density_bug else 'missed'}) and a dropped "
              f"covariance half ({'caught' if caught_cov_bug else 'missed'}) at n={n}",
           caught_density_bug and caught_cov_bug)


def test_criterion_10_cli_determinism(tmp_path):
    param_path = tmp_path / "P.csv"
    param_path.write_text(ser.matrix_to_csv(np.diag([2.0, 1.0]).astype(complex)))

    def run_twice(argv, out):
        assert cli.main(argv) in (0, 1)
        with open(out, "rb") as handle:
            first = handle.read()
        assert cli.main(argv) in (0, 1)
        with open(out, "rb") as handle:
            return first == handle.read()

    draws_csv = str(tmp_path / "draws.csv")
    draws_json = str(tmp_path / "draws.json")
    dens = str(tmp_path / "dens.csv")
    rep = str(tmp_path / "report.json")
    root = str(tmp_path / "root.csv")
    ok = run_twice(
        ["sample", "--r", "1", "--n", "200", "--seed", "7", "--param", str(param_path),
         "--out", draws_csv], draws_csv)
    ok &= run_twice(
        ["sample", "--r", "1", "--n", "200", "--seed", "7", "--param", str(param_path),
         "--out", draws_json, "--format", "json"], draws_json)
    ok &= run_twice(
        ["density", "--param", str(param_path), "--input", draws_csv, "--out", dens], dens)
    ok &= run_twice(
        ["verify", "--uniform", "--m", "2", "--r", "1", "--checks", "normalization",
         "--n", "20000", "--seed", "3", "--out", rep], rep)
    ok &= run_twice(["sqrt", "--input", str(param_path), "--out", root], root)
    report(10, "repeated CLI invocations with identical flags and seed produce "
               "byte-identical data files (sample/density/verify/sqrt)", ok)
