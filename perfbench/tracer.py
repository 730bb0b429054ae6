"""Spans and counts for the traced run, recorded from the benchmark's side.

For the traced pass the tracer swaps timing wrappers in for public module
attributes of freespec. Calls made inside a module (``min_eig -> eigh``,
``eval_monic -> eval_hom``) resolve through the module's globals, so they are
caught as well. Each span records its name, start, end, parent span and
operation index; spans stay in memory until the run writes them out. A
layer's self time is its spans' durations minus the time of their direct
child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _tally_pinv(counts, result):
    counts["linalg.pinv.out_mb"] += result.nbytes / 1e6


def _tally_solver(counts, result):
    counts["feasibility.solve_affine_psd.iterations"] += result.iterations
    counts["feasibility.solve_affine_psd.no_certificate"] += not result.feasible


def _tally_oracle(counts, result):
    counts["extreme.dilation_oracle.directions"] += result.directions_tried


def _tally_hull_boundary(counts, result):
    counts["feasibility.arveson_in_hull.directions"] += result.directions_tried


#: (module, attribute, span name, tally of the returned value)
WRAPPED = (
    ("pencil", "eval_hom", "pencil.eval_hom", None),
    ("linalg", "eigh", "linalg.eigh", None),
    ("linalg", "null_space", "linalg.null_space", None),
    ("linalg", "pinv", "linalg.pinv", _tally_pinv),
    ("linalg", "herm_to_vec", "linalg.herm_to_vec", None),
    ("linalg", "vec_to_herm", "linalg.vec_to_herm", None),
    ("extreme", "is_arveson", "extreme.is_arveson", None),
    ("extreme", "is_euclidean_extreme", "extreme.is_euclidean_extreme", None),
    ("extreme", "is_irreducible", "extreme.is_irreducible", None),
    ("extreme", "dilation_oracle", "extreme.dilation_oracle", _tally_oracle),
    ("structure", "commutant", "structure.commutant", None),
    ("feasibility", "solve_affine_psd", "feasibility.solve_affine_psd", _tally_solver),
    ("feasibility", "hull_membership", "feasibility.hull_membership", None),
    ("feasibility", "arveson_in_hull", "feasibility.arveson_in_hull", _tally_hull_boundary),
    ("feasibility", "spectrahedrop_membership", "feasibility.spectrahedrop_membership", None),
    ("pencil", "read_tuple", "cli.io", None),
    ("cli", "_write", "cli.io", None),
)

#: per-layer metrics reported by the traced run, with their units
LAYER_METRICS = (
    ("pencil.eval_hom.calls", "count"),
    ("pencil.eval_hom.self_ms", "ms"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.self_ms", "ms"),
    ("linalg.null_space.calls", "count"),
    ("linalg.null_space.self_ms", "ms"),
    ("extreme.is_arveson.calls", "count"),
    ("extreme.is_arveson.self_ms", "ms"),
    ("extreme.is_euclidean_extreme.calls", "count"),
    ("extreme.is_euclidean_extreme.self_ms", "ms"),
    ("extreme.is_irreducible.calls", "count"),
    ("extreme.is_irreducible.self_ms", "ms"),
    ("structure.commutant.calls", "count"),
    ("structure.commutant.self_ms", "ms"),
    ("cli.io.self_ms", "ms"),
    ("extreme.dilation_oracle.directions", "count"),
    ("feasibility.solve_affine_psd.calls", "count"),
    ("feasibility.solve_affine_psd.self_ms", "ms"),
    ("feasibility.solve_affine_psd.iterations", "count"),
    ("feasibility.solve_affine_psd.no_certificate", "count"),
    ("linalg.herm_to_vec.calls", "count"),
    ("linalg.herm_to_vec.self_ms", "ms"),
    ("linalg.vec_to_herm.calls", "count"),
    ("linalg.vec_to_herm.self_ms", "ms"),
    ("linalg.pinv.calls", "count"),
    ("linalg.pinv.self_ms", "ms"),
    ("linalg.pinv.out_mb", "MB"),
    ("feasibility.hull_membership.calls", "count"),
    ("feasibility.hull_membership.self_ms", "ms"),
    ("feasibility.arveson_in_hull.directions", "count"),
    ("feasibility.spectrahedrop_membership.self_ms", "ms"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self, package) -> None:
        """Wrap every attribute in ``WRAPPED`` on the modules of ``package``."""
        for mod_name, attr, name, tally in WRAPPED:
            module = getattr(package, mod_name)
            orig = getattr(module, attr)

            def traced(*args, _orig=orig, _name=name, _tally=tally, **kwargs):
                with self.span(_name):
                    result = _orig(*args, **kwargs)
                if _tally is not None:
                    _tally(self.counts, result)
                return result

            setattr(module, attr, functools.wraps(orig)(traced))
            self._saved.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self milliseconds and tallies per layer, named as in
        ``LAYER_METRICS``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_ms[name] += 1e3 * (end - start - inner)
        out = {}
        for metric, _ in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "self_ms":
                out[metric] = self_ms[layer]
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path: str) -> None:
        """One JSON array ``[name, start, end, parent, op]`` per line; parent
        is the line number (from 0) of the enclosing span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
