"""The benchmark's workloads: inputs made from a seed, the command, the output check.

Each workload builds its input files in a work directory from the workload
seed, names the ``cmacg`` command line to run there, and checks what that
command left behind.  The program receives only files; every random number
in an input comes from the benchmark's own numpy code.  NOTES.md says why
each workload exists and what it should and should not move.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from tracing import CHECKS

M, R = 3, 2
PARAM_COND = 10.0
SEMI_UNITARY_ATOL = 1e-10
DENSITY_RTOL = 1e-10
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class Verdict:
    """Outcome of one output check; ``failed_verdicts`` counts failed verify checks."""

    ok: bool
    reason: str = ""
    failed_verdicts: int = 0


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & _SEED_MASK, lane])


def random_param(rng: np.random.Generator, m: int = M) -> np.ndarray:
    """Hermitian PD m-by-m matrix with eigenvalues spanning 1..PARAM_COND."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, upper = np.linalg.qr(g)
    q = q * (np.diagonal(upper) / np.abs(np.diagonal(upper)))
    eigs = np.concatenate([[1.0], rng.uniform(1.0, PARAM_COND, m - 2), [PARAM_COND]])
    mat = (q * eigs) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


def _pairs(values: np.ndarray) -> np.ndarray:
    """(..., k) complex -> (..., 2k) real, columns in (Re, Im) pairs."""
    return np.stack([values.real, values.imag], axis=-1).reshape(*values.shape[:-1], -1)


def write_matrix_csv(path: str, mat: np.ndarray) -> None:
    np.savetxt(path, _pairs(mat), fmt="%.17g", delimiter=",")


def write_draws_csv(path: str, frames: np.ndarray) -> None:
    """Stacked-draws CSV: draw_index, then (Re, Im) pairs, 17 significant digits."""
    n, m, r = frames.shape
    rows = np.column_stack([np.repeat(np.arange(n), m), _pairs(frames).reshape(n * m, 2 * r)])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * (2 * r), delimiter=",")


def read_draws_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse stacked draws independently of the program: (draw_index column, frames)."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    width = data.shape[1]
    if width < 3 or (width - 1) % 2:
        raise ValueError(f"{width} columns is not draw_index plus (Re, Im) pairs")
    values = data[:, 1::2] + 1j * data[:, 2::2]
    return data[:, 0], values


def cmacg_draws(rng: np.random.Generator, param: np.ndarray, n: int, r: int) -> np.ndarray:
    """CMACG(param) frames: polar factors of normal draws with column covariance param."""
    m = param.shape[0]
    z = (rng.standard_normal((n, m, r)) + 1j * rng.standard_normal((n, m, r))) / np.sqrt(2.0)
    z = np.linalg.cholesky(param) @ z
    u, _, vh = np.linalg.svd(z, full_matrices=False)
    return u @ vh


def reference_log_density(param: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """-r logdet P - m logdet(H^H P^-1 H), with P^-1 H from a solve."""
    m, r = frames.shape[1:]
    _, logdet_param = np.linalg.slogdet(param)
    inner = np.swapaxes(frames.conj(), 1, 2) @ np.linalg.solve(param[None], frames)
    _, logdet_inner = np.linalg.slogdet(inner)
    return -r * logdet_param - m * logdet_inner


def semi_unitary_residual(frames: np.ndarray) -> float:
    r = frames.shape[2]
    return float(np.abs(np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(r)).max())


class SampleCsv:
    """``cmacg sample`` of n frames of a seeded P, written as CSV: the write path."""

    name = "sample-csv"
    out = "draws.csv"

    def __init__(self, n: int = 20_000):
        self.n = n
        self._digest = None

    def prepare(self, seed: int, workdir: str) -> None:
        write_matrix_csv(os.path.join(workdir, "P.csv"), random_param(_rng(seed, 0)))
        self._digest = None

    def argv(self, seed: int) -> list[str]:
        return ["sample", "--param", "P.csv", "--r", str(R), "--n", str(self.n),
                "--seed", str(seed), "--out", self.out]

    def outputs(self) -> list[str]:
        return [self.out, self.out + ".meta.json"]

    def check(self, workdir: str, code: int) -> Verdict:
        if code != 0:
            return Verdict(False, f"exit {code}")
        path = os.path.join(workdir, self.out)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if self._digest is not None:
            if digest != self._digest:
                return Verdict(False, "output differs from the first invocation with this seed")
            return Verdict(True)
        index, values = read_draws_csv(path)
        if values.shape != (self.n * M, R):
            return Verdict(False, f"parsed shape {values.shape}, expected {(self.n * M, R)}")
        if not np.array_equal(index, np.repeat(np.arange(self.n), M)):
            return Verdict(False, "draw_index is not 0..n-1 in blocks of m rows")
        residual = semi_unitary_residual(values.reshape(self.n, M, R))
        if not residual <= SEMI_UNITARY_ATOL:
            return Verdict(False, f"semi-unitarity residual {residual:.3e}")
        self._digest = digest
        return Verdict(True)


class DensityCsv:
    """``cmacg density`` of n stored frames, read from CSV: the read path."""

    name = "density-csv"
    out = "density.csv"

    def __init__(self, n: int = 20_000):
        self.n = n
        self._reference = None

    def prepare(self, seed: int, workdir: str) -> None:
        rng = _rng(seed, 1)
        param = random_param(rng)
        frames = cmacg_draws(rng, param, self.n, R)
        write_matrix_csv(os.path.join(workdir, "P.csv"), param)
        write_draws_csv(os.path.join(workdir, "frames.csv"), frames)
        self._reference = reference_log_density(param, frames)

    def argv(self, seed: int) -> list[str]:
        return ["density", "--param", "P.csv", "--input", "frames.csv", "--out", self.out]

    def outputs(self) -> list[str]:
        return [self.out, self.out + ".meta.json"]

    def check(self, workdir: str, code: int) -> Verdict:
        if code != 0:
            return Verdict(False, f"exit {code}")
        data = np.loadtxt(os.path.join(workdir, self.out), delimiter=",", ndmin=2)
        if data.shape != (self.n, 2) or not np.array_equal(data[:, 0], np.arange(self.n)):
            return Verdict(False, f"output shape {data.shape} or index column is wrong")
        ref = self._reference
        error = np.abs(data[:, 1] - ref) / np.maximum(1.0, np.abs(ref))
        if not error.max() <= DENSITY_RTOL:
            worst = int(np.argmax(error))
            return Verdict(False, f"frame {worst}: {data[worst, 1]!r} vs reference {ref[worst]!r}")
        return Verdict(True)


class Verify:
    """``cmacg verify``: the Monte Carlo suite, math only, no bulk I/O.

    Exit 1 (a failed verdict) is a completed run; its verdicts are counted,
    not treated as a failure of the invocation.
    """

    out = "cmacg_verify_report.json"

    def __init__(self, name: str, n: int, m: int | None = None, r: int | None = None,
                 checks: tuple[str, ...] | None = None):
        self.name, self.n, self.m, self.r, self.checks = name, n, m, r, checks

    def prepare(self, seed: int, workdir: str) -> None:
        pass

    def argv(self, seed: int) -> list[str]:
        argv = ["verify", "--n", str(self.n), "--seed", str(seed)]
        if self.m is not None:
            argv += ["--m", str(self.m)]
        if self.r is not None:
            argv += ["--r", str(self.r)]
        if self.checks is not None:
            argv += ["--checks", ",".join(self.checks)]
        return argv

    def outputs(self) -> list[str]:
        return [self.out, self.out + ".meta.json"]

    def check(self, workdir: str, code: int) -> Verdict:
        if code not in (0, 1):
            return Verdict(False, f"exit {code}")
        with open(os.path.join(workdir, self.out), encoding="utf-8") as handle:
            report = json.load(handle)
        names = tuple(entry.get("check_name") for entry in report)
        if names != (self.checks or CHECKS):
            return Verdict(False, f"report lists checks {names}")
        failed = sum(entry.get("verdict") != "pass" for entry in report)
        if (failed > 0) != (code == 1):
            return Verdict(False, f"exit {code} with {failed} failed verdicts in the report")
        return Verdict(True, failed_verdicts=failed)


def default_workloads() -> dict:
    """The benchmark's four workloads at the sizes that define them.

    The sizes keep one invocation near a second or less, so that a run holds
    ten or more and the reference probes that bracket each one see the host
    speed it ran at.  ``verify`` needs n >= 10000 per check, and n >= 50000
    for the full suite.
    """
    workloads = [
        SampleCsv(n=20_000),
        DensityCsv(n=20_000),
        Verify("verify-suite", n=50_000),
        Verify("verify-wide", n=10_000, m=12, r=4,
               checks=("normalization", "unitary_invariance", "corollary", "general_class")),
    ]
    return {w.name: w for w in workloads}
