"""Seeded multi-trial experiment harness with CSV/JSON reporting.

A trial re-draws the sketch operators from seed_i = mix_seed(master_seed, i)
and runs one factorization; the deterministic algorithm simply repeats.  A
trial SUCCEEDS when no Cholesky stage breaks down and the measured
orthogonality stays at or below the configured threshold; breakdowns are
recorded with their stage, quality misses as QUALITY_FAIL.  Summary averages
cover successful trials only.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from . import generators, qr, sparse
from .bounds import BoundReport, SketchParams
from .errors import CholeskyBreakdown, ParamError
from .sketch import _check_int, mix_seed

SUCCESS = "SUCCESS"
QUALITY_FAIL = "QUALITY_FAIL"

CSV_COLUMNS = ("trial", "seed", "outcome", "orthogonality", "residual",
               "wall_time_s")


@dataclass
class ExperimentConfig:
    generator: generators.GeneratorSpec
    algorithm: str
    s1: int = 0  # CountSketch rows for mr; the Gaussian size for sr
    s2: int = 0
    trials: int = 30
    master_seed: int = 0
    success_orth_threshold: float = 1e-12


@dataclass
class ExperimentRecord:
    trial: int
    seed: int
    outcome: str
    orthogonality: float | None
    residual: float | None
    wall_time_s: float


@dataclass
class ExperimentSummary:
    trials: int
    successes: int
    mean_orthogonality: float | None
    mean_residual: float | None
    mean_wall_time_s: float | None


def load_input(config: ExperimentConfig) -> np.ndarray:
    return sparse.as_dense(generators.generate(config.generator))


def run_experiment(config: ExperimentConfig,
                   x: np.ndarray | None = None,
                   ) -> tuple[list[ExperimentRecord], ExperimentSummary]:
    """Run the configured trials; returns per-trial records plus a summary.

    Pass ``x`` to reuse an already materialized input across configurations.
    """
    _check_int(config.trials, "trials", 1, None)
    if not config.success_orth_threshold >= 0.0:  # NaN fails this too
        raise ParamError("need a success threshold >= 0")
    _check_int(config.master_seed, "master_seed")
    params = SketchParams(config.algorithm, s1=config.s1, s2=config.s2)
    if x is None:
        x = load_input(config)
    records: list[ExperimentRecord] = []
    for trial in range(config.trials):
        seed = mix_seed(config.master_seed, trial)
        start = time.perf_counter()
        try:
            result = qr.factorize(params, x, seed)
        except CholeskyBreakdown as err:
            elapsed = time.perf_counter() - start
            records.append(ExperimentRecord(
                trial, seed, f"BREAKDOWN({err.stage})", None, None, elapsed))
            continue
        orth = qr.orthogonality(result.q)
        resid = qr.residual(result.q, result.r, x)
        elapsed = time.perf_counter() - start  # the metrics are timed too
        outcome = SUCCESS if orth <= config.success_orth_threshold else QUALITY_FAIL
        records.append(ExperimentRecord(trial, seed, outcome, orth, resid, elapsed))
    good = [r for r in records if r.outcome == SUCCESS]
    summary = ExperimentSummary(
        trials=config.trials,
        successes=len(good),
        mean_orthogonality=_mean([r.orthogonality for r in good]),
        mean_residual=_mean([r.residual for r in good]),
        mean_wall_time_s=_mean([r.wall_time_s for r in good]),
    )
    return records, summary


def _mean(values) -> float | None:
    return float(np.mean(values)) if values else None


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6e}"


def emit_csv(records: list[ExperimentRecord], path) -> None:
    """Header plus one row per trial; floats in 6-digit scientific notation."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.trial, r.seed, r.outcome,
                             _fmt(r.orthogonality), _fmt(r.residual),
                             _fmt(r.wall_time_s)])


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    value = float(value)
    return value if np.isfinite(value) else None  # inf: beyond measurement


def emit_json(report: BoundReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonable(dataclasses.asdict(report)), handle, indent=2)
        handle.write("\n")
