"""Frobenius and max-column-norm ("g") norms."""

from __future__ import annotations

import numpy as np

from . import dense, sparse


def fro_norm(x) -> float:
    x = sparse.as_dense(x)
    return float(np.sqrt(dense.fixed_sum(x * x)))


def g_bracket(x) -> float:
    """Largest column 2-norm."""
    x = sparse.as_dense(x)
    return float(np.sqrt(np.max(dense.fixed_sum_rows(x * x))))


def g_norm(x) -> float:
    """sqrt(cols) times the largest column 2-norm; a true matrix norm."""
    x = sparse.as_dense(x)
    return float(np.sqrt(x.shape[1])) * g_bracket(x)

