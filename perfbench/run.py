"""rcholqr benchmark: seeded QR trials and bound reports, end to end and
layer by layer.  Run from the repository root:

    python3 perfbench/run.py --workload paper-t1 --seed 0 --seconds 40 --trace 0

A run sets up its inputs, warms up, then measures rounds for ``--seconds``;
a started round always finishes.  A round runs one trial of every case
(trial index = round number) and one bound report per input (the algorithm
rotates), so reports are spread over the run like trials.  ``--trace 1``
then replays the same rounds with span recording installed and prints
per-layer metrics.  The last line of standard output is the result object;
the line before it holds the details.

``python3 perfbench/run.py --record-reference`` rewrites reference.json
from the current sources at workload seed 0.
"""

import os
import sys

from check import THREAD_VARS

# Pinned before numpy loads.  Only the LAPACK check calls BLAS; the package
# itself uses none.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
try:
    import rcholqr
except ImportError:
    sys.exit(f"cannot import rcholqr from {ROOT / 'src'}")
if Path(rcholqr.__file__).resolve().parent != ROOT / "src" / "rcholqr":
    sys.exit(f"rcholqr imported from {rcholqr.__file__}, not from this checkout")

import numpy as np
from rcholqr import bench, bounds, qr, sparse
from rcholqr.bench import SUCCESS, ExperimentConfig
from rcholqr.bounds import CHOLQR2
from rcholqr.sketch import mix_seed

import check
from spans import Tracer
from workloads import (ALGORITHMS, BOUND_PARAMS, PERIOD, SIZES, WORKLOADS,
                       master_seed)

REFERENCE = Path(__file__).with_name("reference.json")
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# mix_seed(master + GOLDEN * i, 0) == mix_seed(master, i), so a one-trial
# run_experiment call at that master seed runs trial i of the experiment.
GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1
STAGES = ("first-cholesky", "second-cholesky", "sketch-cholesky",
          "refine-cholesky")


@dataclass
class Trial:
    label: str  # "<input>/<algorithm>#<round>", the trace label
    case: str  # "<input>/<algorithm>"
    alg: str
    index: int
    outcome: str
    wall_s: float  # as run_experiment records it
    call_s: float  # the whole run_experiment call
    r: np.ndarray | None = None
    orth: float | None = None
    resid: float | None = None
    error: str | None = None


@dataclass
class Report:
    case: str
    wall_s: float
    digest: str | None = None
    error: str | None = None


@dataclass
class Phase:
    trials: list[Trial]
    reports: list[list[Report]]  # one list per round, one report per input
    rounds: int

    @property
    def trials_per_s(self) -> float:
        return len(self.trials) / sum(t.call_s for t in self.trials)


class Runner:
    """Drives one workload through the public API as bench.run_experiment's
    callers do: generated inputs, one ExperimentConfig per trial."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.inputs = WORKLOADS[name]
        self.cases = [(inp, alg) for inp in self.inputs for alg in ALGORITHMS]
        self.masters = {inp.label: master_seed(inp.master, seed)
                        for inp in self.inputs}
        self.tmp = tmp
        self.x: dict[str, np.ndarray] = {}
        self.files: dict[str, Path] = {}
        self.tracer: Tracer | None = None
        self._last_r = None

    def _capture(self, fn):
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._last_r = result.r
            return result
        return capturing

    @contextmanager
    def capturing(self):
        """Keep the R of each factorization for the output check."""
        names = ("cholesky_qr2", "sr_cholesky_qr2", "mr_cholesky_qr2")
        originals = [getattr(qr, name) for name in names]
        for name, fn in zip(names, originals):
            setattr(qr, name, self._capture(fn))
        try:
            yield
        finally:
            for name, fn in zip(names, originals):
                setattr(qr, name, fn)

    def _label(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.trial = label

    def setup(self) -> None:
        self._label("setup")
        for inp in self.inputs:
            x = bench.load_input(ExperimentConfig(generator=inp.spec,
                                                  algorithm=CHOLQR2))
            path = self.tmp / f"{inp.label}.mtx"
            sparse.write_matrix_market(sparse.from_dense(x), path)
            self.x[inp.label], self.files[inp.label] = x, path

    def trial(self, inp, alg: str, index: int, label: str) -> Trial:
        case = f"{inp.label}/{alg}"
        master = self.masters[inp.label]
        config = ExperimentConfig(
            generator=inp.spec, algorithm=alg, trials=1,
            master_seed=(master + GOLDEN * index) & MASK, **SIZES[alg])
        self._label(label)
        self._last_r = None
        start = perf_counter()
        try:
            (record,), _ = bench.run_experiment(config, x=self.x[inp.label])
        except Exception:
            return Trial(label, case, alg, index, "ERROR", 0.0,
                         perf_counter() - start,
                         error=traceback.format_exc(limit=4))
        call_s = perf_counter() - start
        trial = Trial(label, case, alg, index, record.outcome,
                      record.wall_time_s, call_s,
                      orth=record.orthogonality, resid=record.residual)
        if record.seed != mix_seed(master, index):
            trial.error = (f"{case} trial {index}: seed {record.seed} "
                           f"is not mix_seed({master}, {index})")
        elif not record.outcome.startswith("BREAKDOWN"):
            trial.r = self._last_r
        return trial

    def report(self, inp, alg: str) -> Report:
        case = f"{inp.label}/{alg}"
        self._label(f"report:{case}")
        start = perf_counter()
        try:
            rep = bounds.build_bound_report(
                sparse.read_matrix_market(self.files[inp.label]), alg,
                BOUND_PARAMS[alg])
        except Exception:
            return Report(case, perf_counter() - start,
                          error=traceback.format_exc(limit=4))
        return Report(case, perf_counter() - start, check.report_digest(rep))

    def trials(self, number: int) -> list[Trial]:
        index = number % PERIOD
        return [self.trial(inp, alg, index, f"{inp.label}/{alg}#{number}")
                for inp, alg in self.cases]

    def reports(self, number: int) -> list[Report]:
        alg = ALGORITHMS[number % len(ALGORITHMS)]
        return [self.report(inp, alg) for inp in self.inputs]

    def measure(self, seconds: float, rounds: int | None = None) -> Phase:
        """Rounds until ``seconds`` have passed, or exactly ``rounds``."""
        start = perf_counter()
        trials, reports, number = [], [], 0
        while (number < rounds if rounds is not None else
               number == 0 or perf_counter() - start < seconds):
            trials += self.trials(number)
            reports.append(self.reports(number))
            number += 1
        return Phase(trials, reports, number)

    def check(self, trials: list[Trial], reports: list[Report],
              reference: dict, seed: int) -> list[str]:
        """One message per trial or report whose output is wrong.  Trial
        references hold at seed 0 only; the report inputs do not depend on
        the seed."""
        failures = []
        r_ref = {}
        for t in trials:
            if t.error:
                failures.append(t.error)
                continue
            if seed == 0:
                expected = reference["trials"][t.case][t.index]
                actual = [t.outcome, check.trial_digest(t.r, t.orth, t.resid)]
                if actual != expected:
                    failures.append(f"{t.case} trial {t.index}: {actual} "
                                    f"differs from reference {expected}")
                    continue
            if t.outcome == SUCCESS:
                label = t.case.split("/")[0]
                if label not in r_ref:
                    r_ref[label] = check.lapack_r(self.x[label])
                err = check.r_error(t.r, r_ref[label])
                if not err <= check.R_RTOL:
                    failures.append(f"{t.case} trial {t.index}: R differs "
                                    f"from LAPACK by {err:.2e}")
        for rep in reports:
            if rep.error:
                failures.append(rep.error)
            elif rep.digest != reference["reports"][rep.case]:
                failures.append(f"{rep.case} bound report differs from reference")
        return failures


@contextmanager
def scratch_dir():
    """A directory for the run's Matrix Market files, removed afterwards."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def timed_setup(runner: Runner) -> tuple[float, list[Trial]]:
    """Median of SETUP_REPEATS input builds, plus one warm-up round.  The
    warm-up trials are checked but count toward set-up time only."""
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        runner.setup()
        builds.append(perf_counter() - start)
    start = perf_counter()
    trials = runner.trials(0)
    return statistics.median(builds) + perf_counter() - start, trials


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    metrics = {"trials_per_s": (phase.trials_per_s, "1/s")}
    for alg in ALGORITHMS:
        metrics[f"trial_ms.{alg}.p50"] = (
            median_ms([t.wall_s for t in phase.trials if t.alg == alg]), "ms")
    metrics["report_ms.p50"] = (
        median_ms([sum(r.wall_s for r in rs) for rs in phase.reports]), "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    self_ms, incl_s = defaultdict(float), defaultdict(float)
    calls, flop, nbytes = Counter(), Counter(), Counter()
    for span, own_s in zip(spans, own):
        self_ms[span.name] += 1e3 * own_s
        incl_s[span.name] += span.end - span.start
        calls[span.name] += 1
        flop[span.name] += span.flop
        nbytes[span.name] += span.nbytes

    m = {}
    for name in ("generators.generate", "sparse.read_matrix_market",
                 "sparse.profile_sparsity", "sparse.to_dense",
                 "sketch.build_gaussian", "sketch.apply_gaussian",
                 "sketch.build_countsketch", "sketch.apply_countsketch",
                 "dense.gram", "dense.cholesky", "dense.trisolve_right",
                 "dense.matmul", "dense.singular_values", "qr.orthogonality",
                 "qr.residual", "norms.fro_norm", "norms.g_norm"):
        m[f"{name}.ms"] = (self_ms[name], "ms")
    for name in ("qr.cholesky_qr2", "qr.sr_cholesky_qr2", "qr.mr_cholesky_qr2",
                 "bounds.build_bound_report", "bench.run_experiment"):
        m[f"{name}.self_ms"] = (self_ms[name], "ms")
    for name in ("sparse.to_dense", "dense.gram", "dense.trisolve_right"):
        m[f"{name}.calls"] = (calls[name], "count")
    # operation counts are computed from shapes; rates use inclusive time
    for name in ("dense.gram", "dense.trisolve_right", "sketch.apply_gaussian"):
        m[f"{name}.computed_gflop"] = (flop[name] / 1e9, "Gflop")
        m[f"{name}.computed_mb"] = (nbytes[name] / 1e6, "MB")
        m[f"{name}.gflop_per_s"] = (
            flop[name] / 1e9 / incl_s[name] if incl_s[name] else 0.0, "Gflop/s")
    m["sketch.build_gaussian.mb"] = (nbytes["sketch.build_gaussian"] / 1e6, "MB")

    stages = Counter(t.outcome for t in traced.trials)
    for stage in STAGES:
        m[f"dense.cholesky.breakdowns.{stage}"] = (
            stages[f"BREAKDOWN({stage})"], "count")
    factor_s = sum(incl_s[f"qr.{n}"] for n in
                   ("cholesky_qr2", "sr_cholesky_qr2", "mr_cholesky_qr2"))
    m["qr.diagnostics_share"] = (
        (incl_s["qr.orthogonality"] + incl_s["qr.residual"]) / factor_s, "ratio")
    for alg in ALGORITHMS:
        runs = [t for t in traced.trials if t.alg == alg]
        m[f"bench.success_ratio.{alg}"] = (
            sum(t.outcome == SUCCESS for t in runs) / len(runs), "ratio")

    # sketch time of each trial: inclusive time of outermost sketch spans
    sketch_s = defaultdict(float)
    for span in spans:
        if span.name.startswith("sketch.") and not (
                span.parent >= 0 and spans[span.parent].name.startswith("sketch.")):
            sketch_s[span.trial] += span.end - span.start
    wasted = sum(sketch_s[t.label] for t in traced.trials
                 if t.outcome == "BREAKDOWN(sketch-cholesky)")
    total = sum(sketch_s[t.label] for t in traced.trials)
    m["sketch.wasted_share"] = (wasted / total if total else 0.0, "ratio")

    m["trace_overhead_frac"] = (
        1.0 - traced.trials_per_s / untraced.trials_per_s, "ratio")
    own_by_trial = defaultdict(float)
    for span, own_s in zip(spans, own):
        own_by_trial[span.trial] += own_s
    ratios = [own_by_trial[t.label] / t.call_s for t in untraced.trials]
    m["trace.self_sum_ratio"] = (statistics.median(ratios), "ratio")
    return m


def run(args) -> tuple[dict, dict]:
    """Returns the details and the result object of one run."""
    with scratch_dir() as tmp:
        runner = Runner(args.workload, args.seed, tmp)
        with runner.capturing():
            setup_s, trials = timed_setup(runner)
            phase = runner.measure(args.seconds)
            trials, reports = trials + phase.trials, sum(phase.reports, [])
            if args.trace:
                runner.tracer = Tracer()
                with runner.tracer.installed():
                    runner.setup()
                    traced = runner.measure(args.seconds, phase.rounds)
                trials += traced.trials
                reports += sum(traced.reports, [])
                metrics = per_layer(runner.tracer, traced, phase)
                runner.tracer.write(
                    OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            else:
                metrics = end_to_end(phase, setup_s)
        failures = runner.check(trials, reports,
                                load_reference()[args.workload], args.seed)
    successes = defaultdict(lambda: [0, 0])
    for t in phase.trials:
        successes[t.case][0] += t.outcome == SUCCESS
        successes[t.case][1] += 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "masters": runner.masters,
        "machine": check.machine(),
        "rounds": phase.rounds,
        "samples": {**{alg: sum(t.alg == alg for t in phase.trials)
                       for alg in ALGORITHMS},
                    "report": len(phase.reports)},
        "successes": {case: f"{k}/{n}" for case, (k, n) in successes.items()},
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": len(trials) + len(reports),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return detail, result


def record_reference() -> None:
    """Outcome and digests of every case and trial index at seed 0."""
    reference = {}
    for name in WORKLOADS:
        with scratch_dir() as tmp:
            runner = Runner(name, 0, tmp)
            with runner.capturing():
                runner.setup()
                trials = {f"{inp.label}/{alg}": [
                    runner.trial(inp, alg, index, "")
                    for index in range(PERIOD)]
                    for inp, alg in runner.cases}
                reports = [runner.report(inp, alg) for inp, alg in runner.cases]
        errors = [t.error for rows in trials.values() for t in rows if t.error]
        errors += [rep.error for rep in reports if rep.error]
        if errors:
            sys.exit(errors[0])
        reference[name] = {
            "trials": {case: [[t.outcome, check.trial_digest(t.r, t.orth, t.resid)]
                              for t in rows] for case, rows in trials.items()},
            "reports": {rep.case: rep.digest for rep in reports},
        }
        print(name, {case: sum(t.outcome == SUCCESS for t in rows)
                     for case, rows in trials.items()}, flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 keeps the pinned master seeds")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    detail, result = run(args)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
