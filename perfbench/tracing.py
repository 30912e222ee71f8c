"""Spans around the calls into each cmacg layer, for the traced run only.

The wrappers replace module attributes at the binding each caller looks up
and are removed afterwards; nothing inside the program changes.  ``cli``
binds ``sample_cmacg_batch``, ``cmacg_log_density_batch`` and ``run_suite``
at import, so those are wrapped in ``cli`` as well as in their own module.
Spans stay in memory as ``[name, start, end, parent, run]`` and are written
out once, when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import time

CHECKS = ("normalization", "unitary_invariance", "corollary", "general_class",
          "normal_covariance")

# metric -> (span names, "total" or "self"); a span's self time is its
# duration minus that of its child spans.
SPAN_METRICS = {
    "serialization.draws_to_csv_s": (("serialization.draws_to_csv",), "total"),
    "serialization.draws_from_csv_s": (("serialization.draws_from_csv",), "total"),
    "serialization.values_to_csv_s": (("serialization.values_to_csv",), "total"),
    "serialization.write_atomic_s": (("serialization.write_atomic",), "total"),
    "distributions.normal_draw_s": (("distributions.normal_draw",), "total"),
    "distributions.orient_s": (
        ("distributions.sample_cmacg_batch", "distributions.orient"), "self"),
    "distributions.log_density_s": (("distributions.log_density",), "self"),
    "distributions.params_s": (
        ("distributions.params", "distributions.transform_parameter"), "self"),
    **{f"verify.{c}_s": ((f"verify.{c}",), "total") for c in CHECKS},
    **{f"verify.{c}_self_s": ((f"verify.{c}",), "self") for c in CHECKS},
    "verify.ks_s": (("verify.ks",), "total"),
    "linalg.hermitian_part_s": (("linalg.hermitian_part",), "total"),
}

COUNT_METRICS = (
    "serialization.bytes_written",
    "serialization.bytes_read",
    "distributions.draws_attempted",
    "distributions.frames_returned",
    "verify.ks_calls",
    "verify.checks_run",
    "verify.failed_verdicts",
    "linalg.hermitian_part_calls",
)


class Tracer:
    """Collects spans and counts from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.run = None
        self._open = []
        self._patched = []

    def _traced(self, name, fn, count):
        spans, open_spans, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.run]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _counted(self, fn, count):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, result)
            return result

        return counted

    def patch(self, owner, attr, name=None, count=None):
        """Wrap ``owner.attr`` in a span called ``name``, or only count if name is None."""
        original = getattr(owner, attr)
        wrapper = (self._counted(original, count) if name is None
                   else self._traced(name, original, count))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, cli, dist, verify, ser):
        try:
            _install(self, cli, dist, verify, ser)
            yield self
        finally:
            self.restore()


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _install(tracer, cli, dist, verify, ser):
    patch = tracer.patch
    for owner in (cli, dist):
        patch(owner, "sample_cmacg_batch", "distributions.sample_cmacg_batch")
        patch(owner, "cmacg_log_density_batch", "distributions.log_density")
    patch(cli, "run_suite", "verify.run_suite")
    patch(dist, "sample_complex_matrix_normal_batch", "distributions.normal_draw")
    patch(dist, "_orient_with_retry", "distributions.orient",
          _add("distributions.frames_returned", lambda a, res: len(res)))
    patch(dist, "_orientation_batch", None,
          _add("distributions.draws_attempted", lambda a, res: len(a[0])))
    patch(dist, "transform_parameter", "distributions.transform_parameter")
    patch(dist.CmacgParams, "__init__", "distributions.params")
    for owner in (cli, dist, verify):
        patch(owner, "hermitian_part", "linalg.hermitian_part",
              _add("linalg.hermitian_part_calls", lambda a, res: 1))
    for check in CHECKS:
        patch(verify, f"{check}_check", f"verify.{check}",
              lambda counts, a, res: counts.update({
                  "verify.checks_run": 1, "verify.failed_verdicts": int(not res.passed)}))
    patch(verify, "ks_two_sample", "verify.ks", _add("verify.ks_calls", lambda a, res: 1))
    for fn in ("draws_to_csv", "values_to_csv", "draws_from_csv"):
        patch(ser, fn, f"serialization.{fn}")
    # The program writes and reads ASCII text, so characters count bytes.
    patch(ser, "write_atomic", "serialization.write_atomic",
          _add("serialization.bytes_written", lambda a, res: len(a[1])))
    for fn in ("draws_from_csv", "matrix_from_csv", "draws_from_json"):
        patch(ser, fn, None, _add("serialization.bytes_read", lambda a, res: len(a[0])))


def layer_metrics(spans, counts) -> dict:
    """Per-layer seconds and counts from one traced invocation's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total = collections.Counter()
    own = collections.Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[index]
    metrics = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        source = total if kind == "total" else own
        metrics[metric] = sum((source[name] for name in names), 0.0)
    for metric in COUNT_METRICS:
        metrics[metric] = counts[metric]
    attempted = counts["distributions.draws_attempted"]
    # No draws attempted wastes none, so the ratio reads 1.
    metrics["distributions.useful_draw_ratio"] = (
        counts["distributions.frames_returned"] / attempted if attempted else 1.0)
    return metrics
