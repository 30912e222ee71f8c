"""Complex matrix angular central Gaussian (CMACG) distribution toolkit.

A library and CLI for the CMACG distribution on the complex Stiefel
manifold: exact log-density, sampling through the polar decomposition of
complex matrix normal draws, the supporting special functions, and a Monte
Carlo harness that verifies the distributional identities statistically.

``import cmacg`` loads no submodule.  Each name in ``__all__``, and each
submodule that defines one, is imported on first access (PEP 562), so
``cmacg sample`` and ``cmacg density`` never load the verification harness,
and ``density`` imports no ``numpy.random``.
"""

__version__ = "0.8.2"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "CmacgParams", "ComplexMatrixNormalParams", "RngState", "cmacg_log_density",
        "cmacg_log_density_batch", "cmacg_log_density_of_transformed", "derive_rng",
        "make_rng", "projection_matrix", "sample_cmacg", "sample_cmacg_batch",
        "sample_complex_matrix_normal", "sample_complex_matrix_normal_batch",
        "sample_uniform_stiefel", "sample_uniform_stiefel_batch", "stacked_real_covariance",
        "transform_parameter",
    ), "distributions"),
    **dict.fromkeys((
        "CholeskyFailure", "CmacgError", "DimensionMismatch", "DomainError", "IllConditioned",
        "InsufficientSample", "NonConvergence", "NotOnManifold", "NumericalError",
        "RankDeficient", "SingularTransform", "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "HermitianPD", "StiefelPoint", "hermitian_inv_sqrt", "hermitian_part",
        "hermitian_sqrt_eig", "hermitian_sqrt_newton", "logdet_hpd", "polar_decompose",
    ), "linalg"),
    **dict.fromkeys(("ManifoldDims", "log_cmv_gamma", "log_stiefel_volume"), "special"),
    **dict.fromkeys((
        "CHECK_NAMES", "CheckResult", "corollary_check", "general_class_check",
        "ks_two_sample", "normal_covariance_check", "normalization_check", "run_suite",
        "unitary_invariance_check",
    ), "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # The builtin __import__, not importlib, so that ``python -X importtime`` lists these loads.
    if name in _EXPORTS.values():  # a submodule, bound as an eager ``import cmacg`` did
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _EXPORTS[name]
    __import__(f"{__name__}.{module}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
