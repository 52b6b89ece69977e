"""Span recording around the public functions of each rcholqr layer.

The wrappers are installed from outside the package, at every module
attribute that refers to a traced function, so a function imported by name
(``bench.build_gaussian``, ``qr.fro_norm``) is traced at that call site too.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

# Layer functions whose calls are timed, as "<module>.<function>".
TRACED = (
    "generators.generate",
    "sparse.read_matrix_market",
    "sparse.profile_sparsity",
    "sparse.to_dense",
    "sketch.build_gaussian",
    "sketch.apply_gaussian",
    "sketch.build_countsketch",
    "sketch.apply_countsketch",
    "sketch.build_multisketch",
    "dense.gram",
    "dense.cholesky",
    "dense.trisolve_right",
    "dense.matmul",
    "dense.singular_values",
    "qr.orthogonality",
    "qr.residual",
    "qr.cholesky_qr2",
    "qr.sr_cholesky_qr2",
    "qr.mr_cholesky_qr2",
    "norms.fro_norm",
    "norms.g_norm",
    "bounds.build_bound_report",
    "bench.run_experiment",
)


def _cols(x) -> int:
    return x.cols if hasattr(x, "cols") else x.shape[1]


def _rows(x) -> int:
    return x.rows if hasattr(x, "rows") else x.shape[0]


# Operation counts computed from argument shapes: (flop, bytes) of one call.
# Bytes are the operands read plus the result written, in float64.
COUNTS = {
    "dense.gram": lambda x: (
        _rows(x) * _cols(x) ** 2,
        8 * (_rows(x) * _cols(x) + _cols(x) ** 2)),
    "dense.trisolve_right": lambda x, r: (
        _rows(x) * _cols(x) ** 2,
        8 * (2 * _rows(x) * _cols(x) + _cols(x) ** 2)),
    "sketch.apply_gaussian": lambda op, x: (
        2 * op.out_rows * op.in_rows * _cols(x),
        8 * (op.out_rows * op.in_rows + op.in_rows * _cols(x)
             + op.out_rows * _cols(x))),
    "sketch.build_gaussian": lambda s, m_in, seed: (0, 8 * s * m_in),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    trial: str | None
    flop: int = 0
    nbytes: int = 0


class Tracer:
    """Collects one span per traced call; ``trial`` labels the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: str | None = None
        self._open: list[int] = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1, self.trial)
            if count is not None:
                span.flop, span.nbytes = count(*args, **kwargs)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for key, m in sys.modules.items()
                   if key == "rcholqr" or key.startswith("rcholqr.")]
        wrappers = {}
        for name in TRACED:
            layer, attr = name.split(".")
            fn = getattr(sys.modules[f"rcholqr.{layer}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
