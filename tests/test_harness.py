import copyreg
import csv
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import segdisc
from segdisc import Corpus, load_corpus, permute, save_corpus
from segdisc.harness import (CSV_FIELDS, ExperimentSpec, fit_sqrt_coefficient,
                             main, run_damn_british, run_eval,
                             run_fully_trained, run_lexicon_growth,
                             run_permute_average, run_phoneme_mode_matrix,
                             run_train_sweep)


def spec_for(command, sample_path=None, **kwargs):
    if sample_path is not None:
        kwargs["corpus_path"] = str(sample_path)
    return ExperimentSpec(command=command, **kwargs)


# --- scenario ----------------------------------------------------------------

def test_damn_british_same_for_every_order():
    # single-word presentations never populate the bigram or trigram
    # tables, so the higher orders back off to the same unigram decision
    for order in (1, 2, 3):
        report = run_damn_british(spec_for("scenario-damn-british", order=order))
        assert report.first.isolated_count == 7


def test_damn_british_threshold_in_exact_arithmetic():
    # the split wins when P(D&m) * P(brItIS) = 2x/(x+6)^2 beats
    # P(D&mbrItIS) = 1/(x+6), which holds exactly when x > 6
    from segdisc import CountTables, p_unigram

    for x in range(1, 11):
        tables = CountTables()
        tables.commit(["D&mbrItIS"])
        tables.commit(["D&m"])
        tables.commit(["D&m"])
        for _ in range(x):
            tables.commit(["brItIS"])
        whole = p_unigram(tables, "D&mbrItIS")
        parts = p_unigram(tables, "D&m") * p_unigram(tables, "brItIS")
        assert whole == Fraction(1, x + 6)
        assert parts == Fraction(2 * x, (x + 6) ** 2)
        assert (parts > whole) == (x > 6)


# --- fully trained -----------------------------------------------------------

def test_fully_trained_fixture_round_trip(sample_path):
    for order in (1, 2, 3):
        report = run_fully_trained(spec_for("fully-trained", sample_path, order=order))
        assert report.mismatches == ()
        assert report.block.precision == 100.0
        assert report.block.recall == 100.0
        assert report.block.utterances == 20


def test_learner_beats_known_count_baseline(tmp_path):
    # a repetitive vocabulary is learnable: the model must clearly beat a
    # baseline that is told the true number of boundaries per utterance
    rng = random.Random(13)
    words = ["tu", "mi", "lUk", "dOgi", "h&t", "bUk", "wAn", "sIli", "go", "D6"]
    lines = [" ".join(rng.choices(words, k=rng.randint(1, 5))) for _ in range(2000)]
    path = tmp_path / "learnable.txt"
    path.write_text("\n".join(lines) + "\n")
    model = run_eval(ExperimentSpec(command="eval", corpus_path=str(path),
                                    block_size=10 ** 9))
    baseline = run_eval(ExperimentSpec(command="eval", corpus_path=str(path),
                                       block_size=10 ** 9, baseline=True))
    model_block = model.per_run[0][1][0]
    baseline_block = baseline.per_run[0][1][0]
    assert model_block.precision > baseline_block.precision + 20
    assert model_block.recall > baseline_block.recall + 20


def test_fully_trained_flags_inconsistent_transcription(tmp_path, capsys):
    # "dOghQs" fused once but transcribed as two words everywhere else:
    # after training, the familiar parts outweigh the rare fused form and
    # the fused utterance is the only error
    path = tmp_path / "inconsistent.txt"
    path.write_text("dOg hQs\n" * 6 + "In D6 dOghQs\n")
    report = run_fully_trained(ExperimentSpec(
        command="fully-trained", corpus_path=str(path), order=1))
    assert len(report.mismatches) == 1
    miss = report.mismatches[0]
    assert miss.index == 7
    assert miss.target == ("In", "D6", "dOghQs")
    assert miss.predicted == ("In", "D6", "dOg", "hQs")
    out = tmp_path / "errors.tsv"
    assert main(["fully-trained", "--corpus", str(path), "--out", str(out)]) == 0
    assert out.read_text() == "index\tpredicted\ttarget\n7\tIn D6 dOg hQs\tIn D6 dOghQs\n"
    assert "1 of 7 utterances in error" in capsys.readouterr().out


# --- eval and permute-average ------------------------------------------------

def test_eval_deterministic(sample_path):
    a = run_eval(spec_for("eval", sample_path, block_size=10))
    b = run_eval(spec_for("eval", sample_path, block_size=10))
    assert a == b
    assert len(a.per_run) == 1
    assert [blk.utterances for blk in a.per_run[0][1]] == [10, 10]


def test_eval_train_fraction_reserves_prefix(sample_path):
    result = run_eval(spec_for("eval", sample_path, block_size=500,
                               train_fraction=0.5))
    (_, blocks), = result.per_run
    assert blocks[0].utterances == 10  # only the test half is scored


@pytest.fixture
def hundred_path(sample_path, tmp_path):
    """A 100-utterance corpus: the 20-utterance fixture five times."""
    path = tmp_path / "hundred.txt"
    path.write_text(sample_path.read_text() * 5)
    return path


@pytest.mark.parametrize("fraction, trained", [(0.29, 29), (0.57, 57), (0.58, 58),
                                               (Fraction(29, 100), 29), (Decimal("0.29"), 29)])
def test_train_fraction_counts_the_fraction_as_written(hundred_path, fraction, trained):
    # in floats 0.29 * 100 < 29, yet --train-frac 0.29 of 100 trains on 29;
    # the spec takes any real in [0, 1], and its str, not its repr, is read
    result = run_eval(spec_for("eval", hundred_path, train_fraction=fraction,
                               block_size=500))
    (_, blocks), = result.per_run
    assert [block.utterances for block in blocks] == [100 - trained]


def test_permute_average_identical_given_same_seeds(sample_path):
    spec = spec_for("permute-average", sample_path, runs=2, base_seed=3, block_size=10)
    assert run_permute_average(spec) == run_permute_average(spec)


def test_permute_average_runs_differ_across_seeds(sample_path):
    result = run_permute_average(
        spec_for("permute-average", sample_path, runs=2, base_seed=0, block_size=10))
    (_, blocks_a), (_, blocks_b) = result.per_run
    assert blocks_a != blocks_b  # different permutations, different scores


def test_permute_average_summary_matches_rows(sample_path):
    result = run_permute_average(
        spec_for("permute-average", sample_path, runs=4, base_seed=1, block_size=10))
    for line in result.summary:
        values = [blocks[line.block_index].precision for _, blocks in result.per_run]
        assert line.precision_mean == pytest.approx(statistics.fmean(values))
        assert line.runs == 4


def test_permute_average_no_permute_is_corpus_order(sample_path):
    averaged = run_permute_average(
        spec_for("permute-average", sample_path, runs=1, no_permute=True, block_size=500))
    single = run_eval(spec_for("eval", sample_path, block_size=500))
    assert averaged.per_run[0][1] == single.per_run[0][1]


def test_averaging_smooths_block_to_block_variation(sample_path):
    result = run_permute_average(
        spec_for("permute-average", sample_path, runs=50, block_size=5))
    mean_curve = [line.precision_mean for line in result.summary]
    single_curve = [blk.precision for blk in result.per_run[0][1]]
    jitter = lambda curve: statistics.stdev(curve)
    assert jitter(mean_curve) < jitter(single_curve)


def test_baseline_runs_and_differs_from_model(sample_path):
    baseline = run_eval(spec_for("eval", sample_path, baseline=True, block_size=500))
    model = run_eval(spec_for("eval", sample_path, baseline=False, block_size=500))
    assert baseline != model
    (_, blocks), = baseline.per_run
    assert 0.0 <= blocks[0].precision <= 100.0


# --- train sweep -------------------------------------------------------------

def test_train_sweep_rows_per_fraction(sample_path):
    result = run_train_sweep(spec_for("train-sweep", sample_path, runs=2,
                                      sweep_step=5, sweep_cap=0.6))
    counts = [point.train_utterances for point in result.points]
    assert counts == [0, 5, 10]
    assert all(point.runs == 2 for point in result.points)
    assert len(result.per_run) == 6  # 2 runs x 3 fractions


def test_train_sweep_cap_counts_the_fraction_as_written(hundred_path):
    result = run_train_sweep(spec_for("train-sweep", hundred_path, runs=1, sweep_step=29,
                                      sweep_cap=0.29))
    assert [point.train_utterances for point in result.points] == [0, 29]


@pytest.mark.parametrize("seen_only", [False, True])
def test_train_sweep_point_is_eval_of_its_permutation(sample_path, tmp_path, seen_only):
    # run r, count c: eval of permutation base_seed + r, trained on its first
    # c utterances, the rest scored as one block
    corpus = load_corpus(sample_path)
    n = len(corpus)
    result = run_train_sweep(spec_for("train-sweep", sample_path, runs=2, base_seed=3,
                                      sweep_step=5, lexicon_seen_only=seen_only))
    assert [(r, c) for r, c, _ in result.per_run] == [
        (r, c) for r in (0, 1) for c in (0, 5, 10, 15)]
    for run_id, count, block in result.per_run:
        path = tmp_path / f"run{run_id}.txt"
        save_corpus(permute(corpus, 3 + run_id), path)
        single = run_eval(spec_for("eval", path, train_fraction=count / n, block_size=n,
                                   lexicon_seen_only=seen_only))
        assert single.per_run == ((0, (block,)),)


def test_train_sweep_zero_fraction_equals_unsupervised(sample_path):
    result = run_train_sweep(spec_for("train-sweep", sample_path, runs=1,
                                      base_seed=9, sweep_step=100))
    swept = next(block for run_id, count, block in result.per_run if count == 0)
    unsupervised = run_permute_average(
        spec_for("permute-average", sample_path, runs=1, base_seed=9,
                 block_size=10 ** 9))
    assert swept == unsupervised.per_run[0][1][0]


def test_train_sweep_more_training_does_not_hurt_much(sample_path):
    # with the whole fixture trained the test residue is segmented well
    result = run_train_sweep(spec_for("train-sweep", sample_path, runs=3,
                                      sweep_step=10, sweep_cap=0.75))
    first, last = result.points[0], result.points[-1]
    assert last.precision_mean > first.precision_mean


# --- lexicon growth ----------------------------------------------------------

def test_lexicon_growth_repeated_utterance(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text("k&n yu fid It\n" * 30)
    model, actual = run_lexicon_growth(
        ExperimentSpec(command="lexicon-growth", corpus_path=str(path), runs=1))
    sizes = [size for _, size in actual.points]
    assert sizes == [4.0] * 30  # constant after the first utterance
    assert actual.points[-1][0] == 120


def test_lexicon_growth_mean_curve_monotone(sample_path):
    model, actual = run_lexicon_growth(
        spec_for("lexicon-growth", sample_path, runs=5))
    for curve in (model, actual):
        sizes = [size for _, size in curve.points]
        assert sizes == sorted(sizes)


def test_fit_sqrt_coefficient_recovers_k():
    points = [(n, 3.0 * n ** 0.5) for n in range(1, 400)]
    assert fit_sqrt_coefficient(points) == pytest.approx(3.0)


# --- phoneme mode matrix -----------------------------------------------------

def test_phoneme_mode_matrix_shape(sample_path):
    cells = run_phoneme_mode_matrix(spec_for("phoneme-modes", sample_path))
    assert len(cells) == 9
    assert {(cfg.order, cfg.phoneme_mode.value) for cfg, _ in cells} == {
        (order, mode) for order in (1, 2, 3)
        for mode in ("uniform", "lexicon", "speech")}
    for _, block in cells:
        assert 0.0 <= block.precision <= 100.0
        assert 0.0 <= block.recall <= 100.0
        assert 0.0 <= block.lexicon_precision <= 100.0


def test_phoneme_mode_cell_is_eval_at_its_order_and_mode(sample_path):
    for cfg, cell in run_phoneme_mode_matrix(spec_for("phoneme-modes", sample_path,
                                                      lexicon_seen_only=True)):
        (_, (block,)), = run_eval(spec_for(
            "eval", sample_path, order=cfg.order, phoneme_mode=cfg.phoneme_mode,
            block_size=10 ** 9, lexicon_seen_only=True)).per_run
        assert (cell.precision, cell.recall, cell.lexicon_precision) == (
            block.precision, block.recall, block.lexicon_precision)


# --- command line ------------------------------------------------------------

def test_cli_eval_writes_schema_stable_csv(sample_path, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["eval", "--corpus", str(sample_path), "--block-size", "10",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_FIELDS
    assert len(rows) == 3
    assert rows[1][6] == "1-gram"


@pytest.mark.parametrize("command, run, argv", [
    ("eval", run_eval, []),
    ("permute-average", run_permute_average, ["--runs", "1"]),
])
def test_block_size_default_is_the_same_for_cli_and_library(sample_path, tmp_path,
                                                             command, run, argv):
    # 600 utterances, more than one block at either command's default
    lines = sample_path.with_name("recombined120.txt").read_text(encoding="ascii")
    corpus = tmp_path / "corpus600.txt"
    corpus.write_text(lines * 5, encoding="ascii")
    out = tmp_path / "blocks.csv"
    assert main([command, "--corpus", str(corpus), *argv, "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        cli = [(int(row["run_id"]), int(row["block_index"]), int(row["utterances"]))
               for row in csv.DictReader(handle)]
    result = run(spec_for(command, corpus, runs=1, block_size=None))
    library = [(run_id, block.block_index, block.utterances)
               for run_id, blocks in result.per_run for block in blocks]
    assert library == cli
    assert len(cli) > 1


def test_cli_deterministic_output(sample_path, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["permute-average", "--corpus", str(sample_path),
                     "--runs", "2", "--seed", "5", "--block-size", "10",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_segment_round_trips_stream(sample_path, capsys):
    assert main(["segment", "--corpus", str(sample_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    assert [line.replace(" ", "") for line in lines] == [
        "hQsIli6vmi", "lUkD*z6b7wIThIzh&t", "9TINk9si6nADRbUk", "tu",
        "DIswAn", "r9tWEnDewOk", "huzanD6tEl6fon&lIs", "sItdQn",
        "k&nyufidIttuD6dOgi", "D*", "duyusihImh(", "lUk", "yuwantItIn",
        "W*dIdItgo", "&ndWAt#Doz", "h9m6ri", "okeIts6cIk", "y&lUkWAtyudId",
        "oke", "tekItQt"]


def test_cli_scenario_output(capsys):
    assert main(["scenario-damn-british"]) == 0
    out = capsys.readouterr().out
    assert "first split at x=7" in out
    assert "2.56495" in out and "2.49084" in out


def test_cli_fully_trained_tsv(sample_path, tmp_path, capsys):
    out = tmp_path / "errors.tsv"
    assert main(["fully-trained", "--corpus", str(sample_path),
                 "--order", "1", "--out", str(out)]) == 0
    assert out.read_text() == "index\tpredicted\ttarget\n"
    assert "0 of 20 utterances in error" in capsys.readouterr().out


def test_cli_missing_corpus_exits_1(capsys):
    assert main(["eval", "--corpus", "/no/such/file"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--corpus", "x", "--order", "9"])
    assert err.value.code == 1


@pytest.mark.parametrize("command,flag", [
    ("eval", "--runs=2"), ("phoneme-modes", "--order=2"),
    ("phoneme-modes", "--phoneme-mode=speech"), ("phoneme-modes", "--runs=2"),
    ("phoneme-modes", "--seed=3"), ("lexicon-growth", "--lexicon-seen-only")])
def test_cli_flag_the_command_does_not_read_exits_1(sample_path, capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main([command, "--corpus", str(sample_path), flag])
    assert err.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_invalid_config_exits_1(sample_path, capsys):
    assert main(["permute-average", "--corpus", str(sample_path), "--runs", "0"]) == 1
    assert main(["eval", "--corpus", str(sample_path), "--block-size", "0"]) == 1
    assert main(["eval", "--corpus", str(sample_path), "--train-frac", "1.5"]) == 1
    assert main(["train-sweep", "--corpus", str(sample_path), "--sweep-step", "0"]) == 1
    assert main(["train-sweep", "--corpus", str(sample_path), "--sweep-cap", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting, value, flag, message", [
    ("permute-average", "runs", 0, "--runs", "runs must be at least 1, got 0"),
    ("eval", "block_size", 0, "--block-size", "block size must be at least 1, got 0"),
    ("train-sweep", "sweep_step", 0, "--sweep-step",
     "sweep step must be at least 1 utterance, got 0"),
    ("eval", "train_fraction", 1.5, "--train-frac", "train fraction must be in [0, 1], got 1.5"),
    ("train-sweep", "sweep_cap", -0.5, "--sweep-cap", "sweep cap must be in [0, 1], got -0.5"),
    ("eval", "phoneme_mode", "bogus", None, "'bogus' is not a valid PhonemeMode"),
], ids=["runs", "block_size", "sweep_step", "train_fraction", "sweep_cap", "phoneme_mode"])
def test_spec_rejects_a_bad_setting_when_built(sample_path, capsys, command, setting, value,
                                               flag, message):
    # a library spec is checked as the CLI's is, when it is built, with the
    # message the CLI prints (argparse's choices reject a bogus mode first)
    with pytest.raises(ValueError) as err:
        ExperimentSpec(command, corpus_path=str(sample_path), **{setting: value})
    assert str(err.value) == message
    if flag:
        assert main([command, "--corpus", str(sample_path), flag, str(value)]) == 1
        assert capsys.readouterr().err == f"segdisc: error: {message}\n"


def test_cli_eval_with_nothing_left_to_test_exits_1(sample_path, capsys):
    assert main(["eval", "--corpus", str(sample_path), "--train-frac", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no utterance left to test after training on 20 of 20" in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_cli_bad_thread_count_exits_1(sample_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SEGDISC_THREADS", value)
    assert main(["permute-average", "--corpus", str(sample_path), "--runs", "2"]) == 1
    assert (f"segdisc: error: SEGDISC_THREADS must be a positive integer, got {value!r}"
            in capsys.readouterr().err)


def test_cli_non_ascii_corpus_exits_1_with_line(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"tu\nmi\nD\xc3\xa6z\n")
    assert main(["segment", "--corpus", str(path)]) == 1
    assert "segdisc: error: line 3: 'ascii' codec can't decode byte 0xc3" in capsys.readouterr().err


def test_cli_internal_assertion_exits_2(monkeypatch, capsys):
    import segdisc.harness as harness

    def boom(spec):
        raise RuntimeError("diverged")

    # main looks the run function up when the command runs, so a
    # replacement on the module is what it calls
    monkeypatch.setattr(harness, "run_damn_british", boom)
    assert main(["scenario-damn-british"]) == 2
    assert "internal check failed" in capsys.readouterr().err


@pytest.mark.parametrize("command, run, kwargs", [
    ("permute-average", run_permute_average, {"runs": 3, "block_size": 10}),
    ("train-sweep", run_train_sweep, {"runs": 3, "sweep_step": 5}),
    ("lexicon-growth", run_lexicon_growth, {"runs": 3}),
    ("phoneme-modes", run_phoneme_mode_matrix, {}),
], ids=["permute-average", "train-sweep", "lexicon-growth", "phoneme-modes"])
def test_worker_pool_matches_serial(sample_path, monkeypatch, command, run, kwargs):
    spec = spec_for(command, sample_path, **kwargs)
    serial = run(spec)
    monkeypatch.setenv("SEGDISC_THREADS", "3")
    pooled = run(spec)
    assert pooled == serial


def test_pool_receives_the_corpus_once_per_worker(sample_path, tmp_path, monkeypatch):
    pickles = []

    def count_corpus(corpus):
        pickles.append(corpus)
        return Corpus, (corpus.utterances,)

    # the pool pickles in this process, through copyreg's dispatch table
    monkeypatch.setitem(copyreg.dispatch_table, Corpus, count_corpus)
    monkeypatch.setenv("SEGDISC_THREADS", "2")
    assert main(["permute-average", "--corpus", str(sample_path), "--runs", "4",
                 "--out", str(tmp_path / "runs.csv")]) == 0
    assert len(pickles) <= 2


_POOLED_MAIN = """
import multiprocessing, sys
from segdisc.harness import main
multiprocessing.set_start_method(sys.argv[1], force=True)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_output_is_the_same_under_every_start_method(sample_path, tmp_path,
                                                          monkeypatch, method):
    monkeypatch.delenv("SEGDISC_THREADS", raising=False)
    env = {**os.environ, "SEGDISC_THREADS": "2",
           "PYTHONPATH": os.path.dirname(os.path.dirname(segdisc.__file__))}
    for name, argv in [("permute", ["permute-average", "--runs", "3"]),
                       ("modes", ["phoneme-modes"])]:
        argv = [*argv, "--corpus", str(sample_path)]
        serial, pooled = tmp_path / f"{name}-serial.csv", tmp_path / f"{name}-pooled.csv"
        assert main(argv + ["--out", str(serial)]) == 0
        proc = subprocess.run([sys.executable, "-c", _POOLED_MAIN, method, *argv,
                               "--out", str(pooled)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert pooled.read_bytes() == serial.read_bytes()


def test_module_entry_point(sample_path):
    proc = subprocess.run(
        [sys.executable, "-m", "segdisc", "scenario-damn-british"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "first split at x=7" in proc.stdout


def test_commands_never_mutate_corpus_file(sample_path, tmp_path):
    before = sample_path.read_bytes()
    main(["eval", "--corpus", str(sample_path), "--out", str(tmp_path / "m.csv")])
    main(["fully-trained", "--corpus", str(sample_path), "--out", str(tmp_path / "e.tsv")])
    assert sample_path.read_bytes() == before
