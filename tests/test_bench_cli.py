import csv
import json

import numpy as np
import pytest

from rcholqr import bench, qr, sketch, sparse
from rcholqr.bench import ExperimentConfig, emit_csv, run_experiment
from rcholqr.bounds import CHOLQR2, MR, SR
from rcholqr.cli import main
from rcholqr.errors import CholeskyBreakdown, ParamError
from rcholqr.generators import GeneratorSpec


def small_t1(sigma=1e-4, q=100):
    return GeneratorSpec("t1", sigma=sigma, block_count=q)


def test_run_experiment_deterministic_success():
    config = ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2, trials=3)
    records, summary = run_experiment(config)
    assert summary.successes == 3
    assert all(r.outcome == "SUCCESS" for r in records)
    # deterministic algorithm repeats bit-identically across trials
    assert records[0].orthogonality == records[1].orthogonality
    records2, _ = run_experiment(config)
    assert [r.orthogonality for r in records] == [r.orthogonality for r in records2]
    assert [r.seed for r in records] == [r.seed for r in records2]


def test_run_experiment_mr_and_sr():
    for alg, kw in ((MR, dict(s1=700, s2=100)), (SR, dict(s1=100))):
        config = ExperimentConfig(generator=small_t1(), algorithm=alg,
                                  trials=4, master_seed=5, **kw)
        records, summary = run_experiment(config)
        assert summary.successes == 4
        assert summary.mean_orthogonality <= 1e-13


def test_metrics_are_computed_by_run_experiment_only(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(qr, name)

        def wrapper(*args):
            value = real(*args)
            calls.append((name, value.hex()))
            return value
        monkeypatch.setattr(qr, name, wrapper)

    spy("orthogonality")
    spy("residual")
    x = bench.load_input(ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2))
    m = x.shape[0]
    qr.cholesky_qr2(x)
    qr.sr_cholesky_qr2(x, sketch.build_gaussian(100, m, seed=1))
    qr.mr_cholesky_qr2(x, sketch.build_multisketch(700, 100, m, seed=1))
    assert calls == []  # the factorizations return Q and R only

    # every second cholqr2 trial breaks down
    real_cholqr2 = qr.cholesky_qr2
    count = [0]

    def every_second_breaks(a):
        count[0] += 1
        if count[0] % 2 == 0:
            raise CholeskyBreakdown(0, "first-cholesky")
        return real_cholqr2(a)

    monkeypatch.setattr(qr, "cholesky_qr2", every_second_breaks)
    for alg, sizes in ((CHOLQR2, {}), (SR, dict(s1=100)),
                       (MR, dict(s1=700, s2=100))):
        calls.clear()
        records, _ = run_experiment(
            ExperimentConfig(generator=small_t1(), algorithm=alg, trials=4,
                             **sizes), x=x)
        done = [r for r in records if not r.outcome.startswith("BREAKDOWN")]
        assert len(done) == (2 if alg == CHOLQR2 else 4), alg
        assert calls == [call for r in done for call in (
            ("orthogonality", r.orthogonality.hex()),
            ("residual", r.residual.hex()))], alg


def test_run_experiment_breakdowns_counted():
    config = ExperimentConfig(generator=small_t1(sigma=2e-8), algorithm=CHOLQR2,
                              trials=3)
    records, summary = run_experiment(config)
    assert summary.successes == 0
    assert summary.mean_orthogonality is None
    assert all(r.outcome == "BREAKDOWN(first-cholesky)" for r in records)
    assert all(r.orthogonality is None and r.residual is None for r in records)


def _overflowing_gram_input():
    # finite entries whose Gram matrix overflows to inf
    return np.random.default_rng(0).standard_normal((2000, 5)) * 1e160


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alg,kw,stage", [
    (CHOLQR2, {}, "first-cholesky"),
    (SR, dict(s1=100), "sketch-cholesky"),
    (MR, dict(s1=700, s2=100), "sketch-cholesky"),
])
def test_run_experiment_overflowing_gram_is_a_breakdown(alg, kw, stage):
    config = ExperimentConfig(generator=small_t1(), algorithm=alg, trials=2, **kw)
    records, summary = run_experiment(config, _overflowing_gram_input())
    assert summary.successes == 0
    assert all(r.outcome == f"BREAKDOWN({stage})" for r in records)


def test_trial_seeds_prefix_stable():
    short = ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2, trials=2,
                             master_seed=9)
    longer = ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2, trials=5,
                              master_seed=9)
    r_short, _ = run_experiment(short)
    r_long, _ = run_experiment(longer)
    assert [r.seed for r in r_short] == [r.seed for r in r_long[:2]]


def test_success_counts_monotone_in_threshold():
    base = dict(generator=small_t1(sigma=1e-4), algorithm=SR, s1=100,
                trials=6, master_seed=3)
    loose = run_experiment(ExperimentConfig(success_orth_threshold=1e-12, **base))[1]
    tight = run_experiment(ExperimentConfig(success_orth_threshold=1e-15, **base))[1]
    assert tight.successes <= loose.successes


def test_run_experiment_validation():
    with pytest.raises(ParamError):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=MR,
                                        s1=10, s2=50, trials=1))
    with pytest.raises(ParamError):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm="qr",
                                        trials=1))
    with pytest.raises(ParamError, match=r"trials must lie in \[1, inf\) as an int"):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2,
                                        trials=0))


@pytest.mark.parametrize("trials", [20.5, 20.0, True], ids=repr)
def test_run_experiment_rejects_trials_that_are_not_an_int(monkeypatch, trials):
    # True ran one trial, and 2.0 raised a bare TypeError once the input
    # was made
    monkeypatch.setattr(bench, "load_input", lambda _config: pytest.fail("loaded"))
    with pytest.raises(ParamError, match=r"trials must lie in \[1, inf\) as an int"):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2,
                                        trials=trials))


def test_run_experiment_takes_numpy_int_trials():
    records, summary = run_experiment(ExperimentConfig(
        generator=small_t1(q=2), algorithm=CHOLQR2, trials=np.int64(20)))
    assert summary.trials == 20 and [r.trial for r in records] == list(range(20))


@pytest.mark.parametrize("threshold", [float("nan"), -1.0])
def test_run_experiment_rejects_nan_or_negative_threshold(threshold):
    # every trial would otherwise become QUALITY_FAIL without a word
    with pytest.raises(ParamError, match="need a success threshold >= 0"):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2,
                                        trials=1,
                                        success_orth_threshold=threshold))


@pytest.mark.parametrize("master_seed", [2**64, -1, 1.5, True])
def test_run_experiment_rejects_master_seed_outside_64_bits(master_seed):
    # mix_seed keeps 64 bits: 2**64 would run master 0's trials, -1 those
    # of 2**64 - 1
    with pytest.raises(ParamError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=CHOLQR2,
                                        trials=1, master_seed=master_seed))


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_cli_bench_bad_threshold_exits_one(tmp_path, capsys, threshold):
    out = tmp_path / "b.csv"
    assert main(["bench", "--family", "t1", "--sigma", "1e-4", "--blocks", "5",
                 "--alg", "cholqr2", "--trials", "2", "--threshold", threshold,
                 "--csv", str(out)]) == 1
    assert "rcholqr: error: need a success threshold >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold,successes", [("0", 0), ("inf", 2)])
def test_cli_bench_zero_and_infinite_thresholds_run(tmp_path, capsys,
                                                    threshold, successes):
    assert main(["bench", "--family", "t1", "--sigma", "1e-4", "--blocks", "5",
                 "--alg", "cholqr2", "--trials", "2", "--threshold", threshold,
                 "--csv", str(tmp_path / "b.csv")]) == 0
    assert f"successes {successes}/2" in capsys.readouterr().out


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text().strip() == "trial,seed,outcome,orthogonality,residual,wall_time_s"


def test_emit_csv_round_trip(tmp_path):
    rec = bench.ExperimentRecord(0, 123, "SUCCESS", 7.04e-15, 2.5e-13, 0.025)
    path = tmp_path / "one.csv"
    emit_csv([rec], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["orthogonality"] == "7.040000e-15"
    assert rows[0]["outcome"] == "SUCCESS"
    assert int(rows[0]["seed"]) == 123
    assert float(rows[0]["residual"]) == 2.5e-13


def test_emit_json_sanitizes_nonfinite(tmp_path):
    from rcholqr.bounds import BoundReport
    report = BoundReport(
        algorithm=CHOLQR2, matrix_class="T2", m=4, n=2,
        size_ok=(True, True), assumption_ok=True,
        kappa_limit=1e4, kappa_measured=float("inf"), admissible=False,
        constants={"j": 1.5}, predicted_orth=1e-12, predicted_resid=1e-11)
    path = tmp_path / "r.json"
    bench.emit_json(report, path)
    data = json.loads(path.read_text())  # strict JSON, no Infinity token
    assert data["kappa_measured"] is None
    assert data["kappa_limit"] == 1e4
    assert data["size_ok"] == [True, True]


def test_cli_gen_factorize_roundtrip(tmp_path, capsys):
    mtx = tmp_path / "x.mtx"
    assert main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "100",
                 "--block-size", "20", "--out", str(mtx)]) == 0
    assert main(["factorize", "--in", str(mtx), "--alg", "mr",
                 "--s1", "700", "--s2", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "orthogonality" in out and "residual" in out
    orth = float([ln for ln in out.splitlines() if ln.startswith("orthogonality")][-1].split()[1])
    assert orth < 1e-12


def test_cli_factorize_writes_factors(tmp_path, capsys):
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "dense", "--sigma", "1e-2", "--blocks", "10",
          "--block-size", "5", "--seed", "2", "--out", str(mtx)])
    qf, rf = tmp_path / "q.mtx", tmp_path / "r.mtx"
    assert main(["factorize", "--in", str(mtx), "--alg", "cholqr2",
                 "--out-q", str(qf), "--out-r", str(rf)]) == 0
    q = sparse.to_dense(sparse.read_matrix_market(qf))
    r = sparse.to_dense(sparse.read_matrix_market(rf))
    x = sparse.to_dense(sparse.read_matrix_market(mtx))
    assert np.linalg.norm(q @ r - x) <= 1e-10 * np.linalg.norm(x)


def test_cli_factorize_breakdown_exit_code(tmp_path, capsys):
    mtx = tmp_path / "bad.mtx"
    main(["gen", "--family", "t1", "--sigma", "2e-8", "--blocks", "100",
          "--block-size", "20", "--out", str(mtx)])
    assert main(["factorize", "--in", str(mtx), "--alg", "cholqr2"]) == 2
    assert "CholeskyBreakdown" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_factorize_overflowing_gram_exit_code(tmp_path, capsys):
    mtx = tmp_path / "huge.mtx"
    sparse.write_matrix_market(sparse.from_dense(_overflowing_gram_input()), mtx)
    assert main(["factorize", "--in", str(mtx), "--alg", "cholqr2"]) == 2
    assert "CholeskyBreakdown" in capsys.readouterr().err


def test_cli_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--family", "t1", "--sigma", "1e-4", "--blocks", "100",
                 "--alg", "sr", "--s", "100", "--trials", "3",
                 "--master-seed", "1", "--csv", str(out)])
    assert code == 0
    assert "successes 3/3" in capsys.readouterr().out
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3


def test_cli_bench_determinism_modulo_timing(tmp_path):
    args = ["bench", "--family", "t2", "--sigma", "1e-4", "--blocks", "100",
            "--alg", "mr", "--s1", "700", "--s2", "100", "--trials", "3",
            "--master-seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    with open(a) as fa, open(b) as fb:
        rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_time_s"), rb.pop("wall_time_s")
        assert ra == rb


def test_cli_bounds_json(tmp_path, capsys):
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "100",
          "--out", str(mtx)])
    report = tmp_path / "report.json"
    code = main(["bounds", "--in", str(mtx), "--alg", "mr", "--s1", "700",
                 "--s2", "100", "--eps1", "0.5", "--eps2", "0.5",
                 "--json", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["matrix_class"] == "T1"
    assert isinstance(data["admissible"], bool)
    assert data["kappa_limit"] > 0
    assert "predicted_orth" in data and "predicted_resid" in data


@pytest.mark.parametrize("flags", [
    ["--alg", "sr", "--s", "100", "--eps", "0.999"],
    ["--alg", "mr", "--s1", "700", "--s2", "100", "--eps1", "0.99", "--eps2", "0.99"]])
def test_cli_bounds_failed_assumption_reads_null(tmp_path, capsys, flags):
    # the distortion leaves no kappa(W) cap: a report, not an error
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "100",
          "--out", str(mtx)])
    report = tmp_path / "report.json"
    assert main(["bounds", "--in", str(mtx), *flags, "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["assumption_ok"] is False and data["admissible"] is False
    assert data["predicted_orth"] is None and data["predicted_resid"] is None
    cap, growth = ("b", "h") if flags[1] == "sr" else ("a", "d")
    assert data["constants"][cap] is None and data["constants"][growth] is None
    assert data["kappa_measured"] > 0 and data["constants"]["j"] > 0


@pytest.mark.parametrize("sizes", [
    ["--alg", "sr"],
    ["--alg", "mr"],
    ["--alg", "mr", "--s1", "100", "--s2", "300"],
])
def test_cli_bounds_rejects_bad_sizes(tmp_path, capsys, sizes):
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "10",
          "--out", str(mtx)])  # 200 x 20
    report = tmp_path / "report.json"
    assert main(["bounds", "--in", str(mtx), *sizes,
                 "--json", str(report)]) == 1
    assert "rcholqr: error:" in capsys.readouterr().err
    assert not report.exists()


def test_cli_bounds_rejects_stage_eps_above_one(tmp_path, capsys):
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "10",
          "--out", str(mtx)])  # 200 x 20
    report = tmp_path / "report.json"
    assert main(["bounds", "--in", str(mtx), "--alg", "mr", "--s1", "100",
                 "--s2", "30", "--eps1", "1.5", "--json", str(report)]) == 1
    err = capsys.readouterr().err
    assert "rcholqr: error: need each stage's eps and p in [0, 1]" in err
    assert not report.exists()


@pytest.mark.parametrize("flags", [["--eps", "inf"], ["--eps", "-0.5"],
                                   ["--eps", "nan"], ["--eps", "1.5"]])
def test_cli_bounds_sr_rejects_eps_or_p_out_of_range(tmp_path, capsys, flags):
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "10",
          "--out", str(mtx)])  # 200 x 20
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["bounds", "--in", str(mtx), "--alg", "sr", "--s", "100",
                 *flags, "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert "rcholqr: error: need each stage's eps and p in [0, 1]" in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("flags", [["--alg", "sr", "--s", "100", "--p", "0.6"],
                                   ["--alg", "mr", "--s1", "100", "--s2", "30",
                                    "--p1", "0.6"],
                                   ["--alg", "mr", "--s1", "100", "--s2", "30",
                                    "--p2", "0.4"]])
def test_cli_bounds_has_no_probability_flags(tmp_path, capsys, flags):
    # no bound reads a failure probability, so no flag sets one
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "10",
          "--out", str(mtx)])  # 200 x 20
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["bounds", "--in", str(mtx), *flags, "--json", str(report)])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: " + " ".join(flags[-2:]) \
        in capsys.readouterr().err
    assert not report.exists()


def test_dispatch_goes_through_module_attributes(tmp_path, monkeypatch):
    # the benchmark captures R and traces calls by patching these attributes
    from rcholqr import qr, sketch
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((qr, "cholesky_qr2"), (qr, "sr_cholesky_qr2"),
                         (qr, "mr_cholesky_qr2"), (sketch, "build_gaussian"),
                         (sketch, "build_multisketch")):
        spy(module, name)
    mtx = tmp_path / "x.mtx"
    main(["gen", "--family", "t1", "--sigma", "1e-4", "--blocks", "100",
          "--out", str(mtx)])
    cases = [
        (CHOLQR2, {}, [], ["cholesky_qr2"]),
        (SR, dict(s1=100), ["--s", "100"], ["build_gaussian", "sr_cholesky_qr2"]),
        (MR, dict(s1=700, s2=100), ["--s1", "700", "--s2", "100"],
         ["build_multisketch", "build_gaussian", "mr_cholesky_qr2"]),
    ]
    for alg, sizes, flags, expected in cases:
        calls.clear()
        run_experiment(ExperimentConfig(generator=small_t1(), algorithm=alg,
                                        trials=1, **sizes))
        assert calls == expected, alg
        calls.clear()
        assert main(["factorize", "--in", str(mtx), "--alg", alg, *flags]) == 0
        assert calls == expected, alg


def test_cli_verify_sketch(capsys):
    code = main(["verify-sketch", "--kind", "gauss", "--m", "300", "--n", "10",
                 "--s1", "80", "--eps", "0.5", "--trials", "100", "--seed", "0"])
    assert code == 0
    frac = float(capsys.readouterr().out.split()[1])
    assert frac >= 0.4


def test_cli_verify_sketch_count_is_the_countsketch(capsys):
    # the fraction the command prints is verify_embedding's for the
    # CountSketch drawn from mix_seed(seed, 1) on X drawn from mix_seed(seed, 0)
    main(["verify-sketch", "--kind", "count", "--m", "300", "--n", "10",
          "--s1", "80", "--eps", "0.5", "--trials", "100", "--seed", "4"])
    printed = capsys.readouterr().out.split()[1]
    rng = np.random.Generator(np.random.Philox(key=sketch.mix_seed(4, 0)))
    x = rng.standard_normal((300, 10))
    op = sketch.build_countsketch(80, 300, sketch.mix_seed(4, 1))
    expected = sketch.verify_embedding(op, x, 0.5, 100, sketch.mix_seed(4, 2))
    assert printed == f"{expected:.4f}"


def test_cli_verify_sketch_multi_needs_s2(capsys):
    code = main(["verify-sketch", "--kind", "multi", "--m", "200", "--n", "5",
                 "--s1", "100", "--eps", "0.5", "--trials", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert "rcholqr: error: multi kind needs --s2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["1.5", "-0.5", "nan"])
def test_cli_verify_sketch_bad_eps_exits_one(capsys, eps):
    code = main(["verify-sketch", "--kind", "gauss", "--m", "100", "--n", "5",
                 "--s1", "30", "--eps", eps, "--trials", "10", "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "rcholqr: error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["1.5", "-0.5", "nan"])
def test_cli_verify_sketch_multi_bad_eps_exits_one(capsys, eps):
    code = main(["verify-sketch", "--kind", "multi", "--m", "200", "--n", "5",
                 "--s1", "100", "--s2", "20", "--eps", eps, "--trials", "50",
                 "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "rcholqr: error: need each stage's eps and p in [0, 1]" in captured.err
    assert captured.out == ""


def test_cli_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["factorize", "--whatever"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_exits_one(capsys):
    assert main(["factorize", "--in", "/nonexistent/x.mtx", "--alg", "cholqr2"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["gen", "--family", "dense", "--sigma", "0.5", "--out", "x.mtx",
      "--seed", "-2"], "--seed"),
    (["factorize", "--in", "x.mtx", "--alg", "sr", "--s", "30",
      "--seed", "-1"], "--seed"),
    (["bench", "--family", "t1", "--sigma", "0.5", "--alg", "mr",
      "--csv", "x.csv", "--master-seed", "-3"], "--master-seed"),
    (["verify-sketch", "--kind", "gauss", "--m", "100", "--s1", "30",
      "--eps", "0.5", "--seed", "-1"], "--seed"),
])
def test_cli_negative_seed_exits_one(tmp_path, monkeypatch, capsys, argv, flag):
    # a seed keys Philox, directly or through mix_seed; each command rejects
    # a negative one before it runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert f"argument {flag}: need an integer >= 0, got '-" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [str(2**64), str(2**128)])
@pytest.mark.parametrize("argv,flag", [
    (["gen", "--family", "dense", "--sigma", "0.5", "--out", "x.mtx",
      "--seed"], "--seed"),
    (["factorize", "--in", "x.mtx", "--alg", "sr", "--s", "30", "--seed"],
     "--seed"),
    (["factorize", "--in", "x.mtx", "--alg", "mr", "--s1", "60", "--s2", "30",
      "--seed"], "--seed"),
    (["bench", "--family", "t1", "--sigma", "0.5", "--alg", "mr",
      "--csv", "x.csv", "--master-seed"], "--master-seed"),
    (["verify-sketch", "--kind", "gauss", "--m", "100", "--s1", "30",
      "--eps", "0.5", "--seed"], "--seed"),
])
def test_cli_seed_of_2_64_or_more_exits_one(tmp_path, monkeypatch, capsys,
                                            argv, flag, seed):
    # mix_seed keeps 64 bits of a seed, so 2**64 would run as seed 0 in mr
    # and verify-sketch, while sr and gen key Philox with it whole
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv + [seed])
    assert info.value.code == 1
    assert (f"argument {flag}: need an integer < 2**64, got '{seed}'"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["++5", "+-5"])
def test_cli_seed_takes_one_plus_sign_at_most(tmp_path, monkeypatch, capsys,
                                              seed):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "dense", "--sigma", "0.5", "--out", "x.mtx",
              "--seed", seed])
    assert info.value.code == 1
    assert (f"argument --seed: need an integer >= 0, got '{seed}'"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_cli_seed_with_one_plus_sign_runs(tmp_path, capsys):
    plain, signed = tmp_path / "a.mtx", tmp_path / "b.mtx"
    for seed, out in (("5", plain), (" +5 ", signed)):
        assert main(["gen", "--family", "dense", "--sigma", "1e-2",
                     "--blocks", "2", "--block-size", "5", "--seed", seed,
                     "--out", str(out)]) == 0
    assert plain.read_bytes() == signed.read_bytes()


def test_cli_largest_seed_runs(tmp_path, capsys):
    seed = str(2**64 - 1)
    mtx = tmp_path / "x.mtx"
    assert main(["gen", "--family", "dense", "--sigma", "1e-2", "--blocks", "10",
                 "--block-size", "5", "--seed", seed, "--out", str(mtx)]) == 0
    for alg in (["--alg", "sr", "--s", "20"],
                ["--alg", "mr", "--s1", "40", "--s2", "20"]):
        assert main(["factorize", "--in", str(mtx), *alg, "--seed", seed]) == 0
    assert main(["verify-sketch", "--kind", "gauss", "--m", "100", "--n", "5",
                 "--s1", "30", "--eps", "0.5", "--trials", "10",
                 "--seed", seed]) == 0
    assert main(["bench", "--family", "t1", "--sigma", "1e-4", "--blocks", "5",
                 "--alg", "mr", "--s1", "60", "--s2", "30", "--trials", "2",
                 "--master-seed", seed, "--csv", str(tmp_path / "b.csv")]) == 0
