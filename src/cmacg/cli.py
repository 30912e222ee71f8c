"""Command-line front end.

Subcommands: ``sample`` (draw orientations or projection matrices),
``density`` (evaluate log-densities for stored frames), ``verify`` (run the
Monte Carlo check suite), ``sqrt`` (principal Hermitian square root).

Exit codes are exhaustive: 0 success, 1 verification failure, 2 input or
configuration error, 3 numerical failure.

``sample`` and ``density`` stream: they draw, read and evaluate in chunks of
a fixed size and write each chunk's text as it is made, so their memory is
bounded by a chunk, not by the number of draws.  ``verify`` holds no
sample: each check works through its draws a block at a time and keeps only
the values its verdict needs.  A block is one of ``distributions.blocks``: at
most ``BLOCK_DRAWS`` draws and at most ``BLOCK_BYTES`` of draw values, so
memory does not grow with m r either; a ``sample`` chunk is two blocks.
Every input file is opened and decoded by ``serialization``, not here.
Where two CPUs are usable, ``verify`` runs its checks on two forked workers
and ``density`` decodes a CSV input of several pieces with a forked helper,
both through ``_workers.forked``; the sidecar records ``workers``, and the
data bytes are those of a serial run.

Every run is reproducible from one 64-bit master seed (flag ``--seed``,
else the ``CMACG_DEFAULT_SEED`` environment variable, else 0); the
effective seed is echoed in the metadata sidecar written next to each
output file.  Data files are deterministic byte-for-byte given identical
flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import __version__, serialization as ser
from .distributions import (
    CmacgParams,
    block_draws,
    blocks,
    cmacg_log_density_batch,
    make_rng,
    sample_cmacg_batch,
)
from .errors import NotOnManifold, NumericalError, ValidationError
from .linalg import HermitianPD, hermitian_part, hermitian_sqrt_newton

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

DEFAULT_SEED = 0
SEED_ENV_VAR = "CMACG_DEFAULT_SEED"

def run_suite(*args, **kwargs):
    """``_workers.run_checks``, imported on call: only ``verify`` loads the harness."""
    from ._workers import run_checks

    return run_checks(*args, **kwargs)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"{SEED_ENV_VAR} is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def _load_param(args) -> HermitianPD:
    if getattr(args, "uniform", False):
        if args.param is not None:
            raise ValidationError("--uniform and --param are mutually exclusive")
        if args.m is None:
            raise ValidationError("--uniform requires --m")
        return HermitianPD(np.eye(args.m, dtype=np.complex128))
    if args.param is None:
        raise ValidationError("a parameter matrix is required: pass --param or --uniform")
    mat = ser.matrix_from_csv(ser.read_text(args.param), path_hint=args.param)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"{args.param}: parameter matrix must be square, got {mat.shape[0]}x{mat.shape[1]}"
        )
    param = HermitianPD(mat, name=f"parameter matrix from {args.param}")
    if args.m is not None and param.dim != args.m:
        raise ValidationError(
            f"--m {args.m} does not match parameter matrix dimension {param.dim}"
        )
    return param


def _batches(chunks):
    """The draws of a stream of (k, m, r) arrays, regrouped into the blocks that ``blocks``
    cuts the whole stream into, whatever the arrays hold.  All but the last block of the
    draws held so far are final, so they go out as they arrive."""
    rest = None
    for chunk in chunks:
        if len(chunk):
            stack = chunk if rest is None else np.concatenate([rest, chunk])
            *done, last = blocks(*stack.shape)
            yield from (stack[block] for block in done)
            rest = stack[last]
    if rest is not None:
        yield rest


def _base_metadata(seed: int, m: int, r: int, n: int, param_mat, started: float) -> dict:
    return {
        "seed": seed,
        "m": m,
        "r": r,
        "n": n,
        "param_sha256": ser.param_checksum(param_mat),
        "tool_version": __version__,
        "wall_time_ms": round(1000.0 * (time.perf_counter() - started), 3),
    }


def cmd_sample(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args)
    param = _load_param(args)
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    params = CmacgParams(param, args.r)
    rng = make_rng(seed)
    # two blocks a chunk, 4096 draws at (3, 2).  Chunked draws are the draws of one whole
    # call, bit for bit: the normal draw keeps no state between calls, and the factor
    # product and the orientation act draw by draw.
    chunk = 2 * block_draws(params.m, params.r)
    with ser.chunk_writer(args.out, args.format, "draws") as write:
        for start in range(0, args.n, chunk):
            draws = sample_cmacg_batch(params, min(chunk, args.n - start), rng)
            if args.as_projection:
                draws = hermitian_part(draws @ np.swapaxes(draws.conj(), 1, 2))
            write(draws, start)
    ser.write_sidecar(
        args.out,
        _base_metadata(seed, params.m, params.r, args.n, params.cov.mat, started),
    )
    return EXIT_OK


def cmd_density(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args)
    param = _load_param(args)
    params, n, sidecar = None, 0, {}
    with contextlib.closing(ser.read_draws(args.input, args.format, sidecar)) as frames, \
            ser.chunk_writer(args.out, args.format, "log_densities") as write:
        # the input's blocks, whatever its pieces hold: the bits of one whole evaluation
        for batch in _batches(frames):
            if params is None:
                m, r = batch.shape[1:]
                if m != param.dim:
                    raise ValidationError(f"{args.input}: frames are {m}x{r} but the parameter "
                                          f"matrix is {param.dim}x{param.dim}")
                if args.r is not None and args.r != r:
                    raise ValidationError(f"--r {args.r} does not match frames of width {r}")
                params = CmacgParams(param, r)
            try:
                values = cmacg_log_density_batch(params, batch)
            except NotOnManifold as exc:  # name the frame by its place in the file
                raise NotOnManifold(
                    str(exc).replace(f"frame {exc.frame} ", f"frame {n + exc.frame} ", 1),
                    exc.residual, n + exc.frame) from None
            write(values, n)
            n += len(batch)
    ser.write_sidecar(
        args.out,
        {**_base_metadata(seed, params.m, params.r, n, params.cov.mat, started), **sidecar},
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args)
    if args.param is None and not args.uniform:
        # documented default parameter: diag(m, m-1, ..., 1)
        m = args.m if args.m is not None else 3
        param = HermitianPD(np.diag(np.arange(m, 0, -1, dtype=float)).astype(complex))
    else:
        param = _load_param(args)
    params = CmacgParams(param, args.r)
    checks = None
    if args.checks is not None:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
        if not checks:
            raise ValidationError("--checks is empty")
    options = {name: value for name, value in (("n", args.n), ("level", args.level))
               if value is not None}  # else run_suite's defaults
    sidecar = {}
    results = run_suite(params, seed=seed, checks=checks, sidecar=sidecar, **options)
    entries = [
        {"check_name": name, "kind": outcome.kind, "statistic": outcome.statistic,
         "threshold": outcome.threshold, "verdict": outcome.verdict, "details": outcome.details}
        for name, outcome in results
    ]
    ser.write_atomic(args.out, ser.dump_json(entries))
    ser.write_sidecar(
        args.out,
        {**_base_metadata(seed, params.m, params.r, args.n, params.cov.mat, started), **sidecar},
    )
    for name, outcome in results:
        status = "pass" if outcome.passed else "FAIL"
        print(
            f"{name}: {status} (statistic={outcome.statistic:.6g} "
            f"threshold={outcome.threshold:.6g})"
        )
    passed = all(outcome.passed for _, outcome in results)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_sqrt(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args)
    mat = ser.matrix_from_csv(ser.read_text(args.input), path_hint=args.input)
    hpd = HermitianPD(mat, name=f"matrix from {args.input}")
    root = hermitian_sqrt_newton(hpd, tol=args.tol, max_iter=args.max_iter)
    residual = float(np.abs(root.mat @ root.mat - hpd.mat).max())
    text = (
        ser.matrix_to_json(root.mat) if args.format == "json" else ser.matrix_to_csv(root.mat)
    )
    ser.write_atomic(args.out, text)
    metadata = _base_metadata(seed, hpd.dim, hpd.dim, 1, hpd.mat, started)
    metadata["residual"] = residual
    ser.write_sidecar(args.out, metadata)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmacg",
        description=(
            "Sample, evaluate and verify the complex matrix angular central "
            "Gaussian distribution on the complex Stiefel manifold."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("csv", "json")):
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed (default 0)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--param", help="parameter matrix CSV ((Re, Im) column pairs)")
        p.add_argument("--uniform", action="store_true", help="use the identity parameter")
        p.add_argument("--m", type=int, default=None, help="ambient dimension")

    p_sample = sub.add_parser("sample", help="draw orientations from the distribution")
    add_common(p_sample)
    p_sample.add_argument("--r", type=int, required=True, help="frame size")
    p_sample.add_argument("--n", type=int, required=True, help="number of draws")
    p_sample.add_argument("--out", required=True, help="output data file")
    p_sample.add_argument(
        "--as-projection",
        action="store_true",
        help="write projection matrices H H^H instead of frames",
    )
    p_sample.set_defaults(handler=cmd_sample)

    p_density = sub.add_parser("density", help="evaluate log-densities for stored frames")
    add_common(p_density)
    p_density.add_argument("--r", type=int, default=None, help="frame size consistency check")
    p_density.add_argument("--input", required=True, help="frames file (sample output format)")
    p_density.add_argument("--out", required=True, help="output file of log-densities")
    p_density.set_defaults(handler=cmd_density)

    p_verify = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    add_common(p_verify, formats=("json",))  # the report is always JSON
    p_verify.add_argument(
        "--r", type=int, default=2,
        help="frame size (default 2; default parameter is diag(m..1) with m=3)",
    )
    p_verify.add_argument(
        "--checks",
        default=None,
        help="comma-separated subset of the checks (default: all; an unknown name lists them)",
    )
    p_verify.add_argument("--n", type=int, default=None,
                          help="draws per check (default: run_suite's)")
    p_verify.add_argument("--level", type=float, default=None,
                          help="false-alarm level of each check (default: run_suite's)")
    p_verify.add_argument("--out", default="cmacg_verify_report.json")
    p_verify.set_defaults(handler=cmd_verify)

    p_sqrt = sub.add_parser("sqrt", help="principal square root of a Hermitian PD matrix")
    p_sqrt.add_argument("--seed", type=int, default=None, help="echoed in metadata only")
    p_sqrt.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sqrt.add_argument("--input", required=True, help="matrix CSV ((Re, Im) column pairs)")
    p_sqrt.add_argument("--out", required=True, help="output matrix file")
    p_sqrt.add_argument("--tol", type=float, default=1e-12)
    p_sqrt.add_argument("--max-iter", type=int, default=100)
    p_sqrt.set_defaults(handler=cmd_sqrt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
