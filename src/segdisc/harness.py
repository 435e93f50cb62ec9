"""Experiment harness and command line interface.

Every scored command runs one experiment, `_scored_run`: an incremental
pass over a corpus order, after an optional supervised prefix, scored in
blocks.  eval runs it once, permute-average once per run, phoneme-modes
once per (order, mode) and train-sweep once per (run, count).  Run r of an
averaged command permutes the corpus with seed base_seed + r, which only
`_seeded_runs` assigns, so every command is deterministic given its base
seed.  Runs are independent (each owns private count tables), so they can
execute on a process pool; set SEGDISC_THREADS to bound the pool (default
1, serial).  Each pool worker receives the corpus once, when it starts; a
job carries only its seed and settings.  `_map_jobs` returns results in
job order, serial or pooled, so the pool size never changes any output.
Every per-utterance loop is the one incremental pass, `_pass`.

`ExperimentSpec` checks its settings when it is built and raises
ValueError for one out of range, so a library caller and the CLI reject
the same specs with the same message.  A result holds its parts (a
BlockScores, a ScenarioOutcome, a LearnerConfig), not copies of their
fields.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .corpus import CorpusError, Utterance, load_corpus, permute, split_at
from .estimator import word_score
from .evaluation import BlockScores, random_baseline, score_blocks
from .segmenter import (LearnerConfig, Segmentation, process_utterance, segment,
                        train_utterance)
from .tables import CountTables, PhonemeMode

CSV_FIELDS = ["run_id", "block_index", "utterances", "precision", "recall",
              "lexicon_precision", "model", "phoneme_mode", "train_fraction"]

# utterances per scoring block when a spec gives none, in the CLI and library
_EVAL_BLOCK_SIZE = 500
_PERMUTE_BLOCK_SIZE = 100


@dataclass
class ExperimentSpec:
    """One command's settings.  Building a spec checks them: a count or
    fraction out of range, or a phoneme mode that is not a PhonemeMode
    value, raises ValueError, whose message the CLI prints after
    `segdisc: error: `.  A block size of None is the command's default."""

    command: str
    corpus_path: str | None = None
    order: int = 1
    runs: int = 1
    base_seed: int = 0
    block_size: int | None = None
    train_fraction: float = 0.0
    sweep_step: int = 100
    sweep_cap: float = 0.75
    phoneme_mode: PhonemeMode = PhonemeMode.LEXICON
    require_vowel: bool = False
    baseline: bool = False
    no_permute: bool = False
    lexicon_seen_only: bool = False
    out_path: str | None = None

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(self.order, self.phoneme_mode, self.require_vowel)

    def model_name(self) -> str:
        return "random" if self.baseline else f"{self.order}-gram"

    def __post_init__(self) -> None:
        self.phoneme_mode = PhonemeMode(self.phoneme_mode)
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(f"block size must be at least 1, got {self.block_size}")
        if self.sweep_step < 1:
            raise ValueError(f"sweep step must be at least 1 utterance, got {self.sweep_step}")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ValueError(f"train fraction must be in [0, 1], got {self.train_fraction}")
        if not 0.0 <= self.sweep_cap <= 1.0:
            raise ValueError(f"sweep cap must be in [0, 1], got {self.sweep_cap}")


@dataclass(frozen=True, kw_only=True)
class _MeanStd:
    """Mean and sample standard deviation of each score over runs."""

    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    lexicon_precision_mean: float
    lexicon_precision_std: float


@dataclass(frozen=True)
class BlockSummary(_MeanStd):
    block_index: int
    runs: int


@dataclass(frozen=True)
class PermuteAverageResult:
    per_run: tuple[tuple[int, tuple[BlockScores, ...]], ...]
    summary: tuple[BlockSummary, ...]


@dataclass(frozen=True)
class SweepPoint(_MeanStd):
    train_utterances: int
    train_fraction: float
    runs: int


@dataclass(frozen=True)
class SweepResult:
    per_run: tuple[tuple[int, int, BlockScores], ...]
    points: tuple[SweepPoint, ...]
    corpus_size: int


@dataclass(frozen=True)
class Mismatch:
    index: int
    predicted: tuple[str, ...]
    target: tuple[str, ...]


@dataclass(frozen=True)
class FullyTrainedReport:
    mismatches: tuple[Mismatch, ...]
    block: BlockScores


@dataclass(frozen=True)
class ScenarioOutcome:
    isolated_count: int
    split: bool
    whole_neglog: float
    parts_neglog: float


@dataclass(frozen=True)
class ScenarioReport:
    outcomes: tuple[ScenarioOutcome, ...]
    first: ScenarioOutcome  # the first outcome that splits


@dataclass(frozen=True)
class GrowthCurve:
    source: str
    points: tuple[tuple[float, float], ...]
    k: float


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("SEGDISC_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SEGDISC_THREADS must be a positive integer, got {env!r}")
    return min(workers, n_jobs)


# A pool worker's corpus, set once by _start_worker when the worker starts
_worker_corpus = None


def _start_worker(corpus):
    global _worker_corpus
    _worker_corpus = corpus


def _call_with_corpus(fn, job):
    return fn((_worker_corpus, *job))


def _map_jobs(fn, corpus, jobs):
    """[fn((corpus, *job)) for job in jobs], serial or on a process pool.

    A pool worker receives the corpus once, as its initializer's argument:
    inherited under fork, pickled once per worker under forkserver or spawn,
    never once per job.
    """
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [fn((corpus, *job)) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(corpus,)) as pool:
        return list(pool.map(_call_with_corpus, repeat(fn), jobs))


def _seeded_runs(job, spec, corpus, *tails):
    """(r, job((corpus, base_seed + r, *tail))) per run r, then per tail."""
    runs = [r for r in range(spec.runs) for _ in tails]
    jobs = [(spec.base_seed + r, *tail) for r in range(spec.runs) for tail in tails]
    return tuple(zip(runs, _map_jobs(job, corpus, jobs)))


def _train_count(fraction: float, n: int) -> int:
    """Floor of `fraction` as written times n: 0.29 of 100 is 29, not 28."""
    return math.floor(Fraction(str(fraction)) * n)


def _pass(tables, corpus, cfg, rng=None):
    """One incremental pass: (prediction, reference words) per utterance.

    The prediction is process_utterance's, committed to `tables` before the
    pair is yielded, or with a random.Random `rng` the random baseline's,
    which leaves the tables alone.
    """
    for utterance in corpus:
        if rng is None:
            seg = process_utterance(tables, utterance.raw, cfg)
        else:
            seg = random_baseline(utterance.raw, len(utterance.words) - 1, rng)
        yield seg, utterance.words


def _scored_run(args):
    """Permute the corpus by `seed` if `shuffle`, commit the reference words
    of its first `n_train` utterances, then score one incremental pass (or
    the random baseline, from random.Random(seed)) over the rest in blocks.
    The trained words seed the learned lexicon that lexicon precision audits."""
    corpus, seed, shuffle, cfg, n_train, block_size, baseline, seen_only = args
    train, test = split_at(permute(corpus, seed) if shuffle else corpus, n_train)
    tables = CountTables()
    for utterance in train:
        train_utterance(tables, utterance.words, cfg)
    rng = random.Random(seed) if baseline else None
    return tuple(score_blocks(_pass(tables, test, cfg, rng), block_size, corpus.lexicon(),
                              initial_lexicon=tables.unigrams,
                              seen_reference_only=seen_only))


def _block_stats(group) -> dict[str, float]:
    """The _MeanStd fields over a group of BlockScores."""
    stats = {}
    for field in ("precision", "recall", "lexicon_precision"):
        values = [getattr(block, field) for block in group]
        stats[f"{field}_mean"] = statistics.fmean(values)
        stats[f"{field}_std"] = statistics.stdev(values) if len(values) > 1 else 0.0
    return stats


def _summarize_blocks(per_run) -> tuple[BlockSummary, ...]:
    """Block i's stats over the runs; every run scores as many utterances,
    so all runs have the same blocks."""
    return tuple(BlockSummary(index, len(group), **_block_stats(group))
                 for index, group in enumerate(zip(*(blocks for _, blocks in per_run))))


def run_permute_average(spec: ExperimentSpec) -> PermuteAverageResult:
    """Incremental runs over `runs` corpus permutations, scored in blocks."""
    corpus = load_corpus(spec.corpus_path)
    per_run = _seeded_runs(_scored_run, spec, corpus,
                           (not spec.no_permute, spec.learner_config(), 0,
                            spec.block_size or _PERMUTE_BLOCK_SIZE, spec.baseline,
                            spec.lexicon_seen_only))
    return PermuteAverageResult(per_run, _summarize_blocks(per_run))


def run_eval(spec: ExperimentSpec) -> PermuteAverageResult:
    """Single pass in corpus order; optionally reserve an initial training
    fraction whose reference segmentations are committed before testing."""
    corpus = load_corpus(spec.corpus_path)
    n_train = _train_count(spec.train_fraction, len(corpus))
    if n_train == len(corpus):
        raise ValueError(f"no utterance left to test after training on {n_train} "
                         f"of {len(corpus)}; lower --train-frac")
    blocks = _scored_run((corpus, spec.base_seed, False, spec.learner_config(), n_train,
                          spec.block_size or _EVAL_BLOCK_SIZE, spec.baseline,
                          spec.lexicon_seen_only))
    per_run = ((0, blocks),)
    return PermuteAverageResult(per_run, _summarize_blocks(per_run))


def run_train_sweep(spec: ExperimentSpec) -> SweepResult:
    """Supervised training on growing initial segments, scored on the rest.

    Each point trains on the first `count` utterances of a permutation and
    scores the remainder as one block; points are averaged over `runs`
    permutations, one job per (run, count).
    """
    corpus = load_corpus(spec.corpus_path)
    cfg = spec.learner_config()
    n = len(corpus)
    counts = [c for c in range(0, _train_count(spec.sweep_cap, n) + 1, spec.sweep_step)
              if c < n]
    results = _seeded_runs(_scored_run, spec, corpus,
                           *[(True, cfg, count, None, False, spec.lexicon_seen_only)
                             for count in counts])
    per_run = tuple((run_id, count, block)
                    for (run_id, (block,)), count in zip(results, counts * spec.runs))
    points = []
    for count in counts:
        group = [block for _, c, block in per_run if c == count]
        points.append(SweepPoint(count, count / n, len(group), **_block_stats(group)))
    return SweepResult(per_run, tuple(points), n)


def run_fully_trained(spec: ExperimentSpec) -> FullyTrainedReport:
    """Train on the reference corpus, then test on a second copy of it.

    The test copy is processed the normal incremental way (segment, then
    commit the inferred words).  Mis-segmented utterances are reported
    with their 1-based position in the corpus.
    """
    corpus = load_corpus(spec.corpus_path)
    cfg = spec.learner_config()
    tables = CountTables()
    for utterance in corpus:
        train_utterance(tables, utterance.words, cfg)
    pairs = list(_pass(tables, corpus, cfg))
    mismatches = tuple(Mismatch(index, seg.words, words)
                       for index, (seg, words) in enumerate(pairs, start=1)
                       if seg.words != words)
    (block,) = score_blocks(pairs, None, corpus.lexicon())
    return FullyTrainedReport(mismatches, block)


def run_damn_british(spec: ExperimentSpec) -> ScenarioReport:
    """How much isolated evidence does splitting a fused word take?

    For x = 1..10: present "D&mbrItIS", then "D&m" twice, then x isolated
    "brItIS" utterances, then "D&mbrItIS" again, and record whether the
    final presentation is split.  The scores reported are the unigram
    negative logs of the whole word versus the two parts at the first x
    that splits.  A split at x <= 6 would contradict the count arithmetic
    and raises RuntimeError.
    """
    cfg = spec.learner_config()
    outcomes = []
    for x in range(1, 11):
        tables = CountTables()
        script = [Utterance.from_words([word])
                  for word in ("D&mbrItIS", "D&m", "D&m") + ("brItIS",) * x]
        for _ in _pass(tables, script, cfg):
            pass
        if tables.unigrams != {"D&mbrItIS": 1, "D&m": 2, "brItIS": x}:
            raise RuntimeError(
                f"scenario lexicon diverged at x={x}: {tables.unigrams}")
        whole = word_score(tables, (), "D&mbrItIS", 1)
        parts = word_score(tables, (), "D&m", 1) + word_score(tables, (), "brItIS", 1)
        seg, _ = segment(tables, "D&mbrItIS", cfg)
        split_now = len(seg.words) > 1
        if split_now and seg.words != ("D&m", "brItIS"):
            raise RuntimeError(f"unexpected split {seg.words} at x={x}")
        outcomes.append(ScenarioOutcome(x, split_now, whole, parts))
    first = next((outcome for outcome in outcomes if outcome.split), None)
    first_x = first.isolated_count if first else None
    if first_x is None or first_x <= 6:
        raise RuntimeError(f"first split at x={first_x}, expected x > 6")
    return ScenarioReport(tuple(outcomes), first)


def fit_sqrt_coefficient(points) -> float:
    """Least-squares k for size = k * sqrt(tokens) through the origin."""
    numerator = sum(size * math.sqrt(tokens) for tokens, size in points)
    denominator = sum(tokens for tokens, _ in points)
    return numerator / denominator


def _growth_job(args):
    corpus, seed, cfg, no_permute = args
    ordered = corpus if no_permute else permute(corpus, seed)
    tables = CountTables()
    model_points = []
    actual_points = []
    model_tokens = actual_tokens = 0
    actual_lexicon: set[str] = set()
    for seg, words in _pass(tables, ordered, cfg):
        model_tokens += len(seg.words)
        model_points.append((model_tokens, len(tables.unigrams)))
        actual_tokens += len(words)
        actual_lexicon.update(words)
        actual_points.append((actual_tokens, len(actual_lexicon)))
    return model_points, actual_points


def _average_curves(curves):
    """Pointwise mean of equally long (tokens, size) curves."""
    return tuple((statistics.fmean(tokens for tokens, _ in column),
                  statistics.fmean(size for _, size in column))
                 for column in zip(*curves))


def run_lexicon_growth(spec: ExperimentSpec) -> tuple[GrowthCurve, GrowthCurve]:
    """Lexicon size against word tokens processed, for the model and for
    the reference words, averaged over runs, with a k*sqrt(N) fit each."""
    corpus = load_corpus(spec.corpus_path)
    cfg = spec.learner_config()
    results = _seeded_runs(_growth_job, spec, corpus, (cfg, spec.no_permute))
    model = _average_curves([model_points for _, (model_points, _) in results])
    actual = _average_curves([actual_points for _, (_, actual_points) in results])
    return (GrowthCurve(f"{spec.order}-gram", model, fit_sqrt_coefficient(model)),
            GrowthCurve("actual", actual, fit_sqrt_coefficient(actual)))


def run_phoneme_mode_matrix(
        spec: ExperimentSpec) -> tuple[tuple[LearnerConfig, BlockScores], ...]:
    """Whole-corpus scores for orders 1-3 crossed with the phoneme modes, one
    (LearnerConfig, BlockScores) pair each."""
    corpus = load_corpus(spec.corpus_path)
    configs = [LearnerConfig(order, mode, spec.require_vowel)
               for order in (1, 2, 3) for mode in PhonemeMode]
    results = _map_jobs(_scored_run, corpus, [(0, False, cfg, 0, None, False,
                                               spec.lexicon_seen_only) for cfg in configs])
    return tuple((cfg, block) for cfg, (block,) in zip(configs, results))


def run_segment(spec: ExperimentSpec) -> tuple[Segmentation, ...]:
    """Incremental pass over the corpus, one segmentation per utterance."""
    corpus = load_corpus(spec.corpus_path)
    return tuple(seg for seg, _ in _pass(CountTables(), corpus, spec.learner_config()))


# ---------------------------------------------------------------------------
# Output formatting


def _write_metric_rows(out, spec, rows):
    """CSV_FIELDS rows from (run_id, train fraction, BlockScores) triples."""
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    for run_id, fraction, block in rows:
        writer.writerow([
            run_id, block.block_index, block.utterances,
            f"{block.precision:.4f}", f"{block.recall:.4f}",
            f"{block.lexicon_precision:.4f}",
            spec.model_name(), spec.phoneme_mode.value, f"{fraction:.4f}",
        ])


def _format_stats(line) -> str:
    return (f"{line.precision_mean:6.2f} +/- {line.precision_std:5.2f}   "
            f"{line.recall_mean:6.2f} +/- {line.recall_std:5.2f}   "
            f"{line.lexicon_precision_mean:6.2f} +/- {line.lexicon_precision_std:5.2f}\n")


def _write_segmentations(spec, segmentations, out, report):
    for seg in segmentations:
        out.write(" ".join(seg.words) + "\n")


def _write_blocks(spec, result, out, report):
    _write_metric_rows(out, spec, ((run_id, spec.train_fraction, block)
                                   for run_id, blocks in result.per_run for block in blocks))
    report.write("block  runs  precision          recall             lexicon-precision\n")
    for line in result.summary:
        report.write(f"{line.block_index:>5}  {line.runs:>4}  {_format_stats(line)}")


def _write_sweep(spec, result, out, report):
    _write_metric_rows(out, spec, ((run_id, count / result.corpus_size, block)
                                   for run_id, count, block in result.per_run))
    report.write("train%  utts  runs  precision          recall             lexicon-precision\n")
    for point in result.points:
        report.write(f"{100 * point.train_fraction:5.1f}  {point.train_utterances:>5} "
                     f"{point.runs:>5}  {_format_stats(point)}")


def _write_mismatches(spec, result, out, report):
    out.write("index\tpredicted\ttarget\n")
    for miss in result.mismatches:
        out.write(f"{miss.index}\t{' '.join(miss.predicted)}\t{' '.join(miss.target)}\n")
    block = result.block
    report.write(
        f"{len(result.mismatches)} of {block.utterances} utterances in error; "
        f"precision {block.precision:.2f}, recall {block.recall:.2f}\n")


def _write_scenario(spec, result, out, report):
    for outcome in result.outcomes:
        verdict = "split" if outcome.split else "whole"
        out.write(
            f"x={outcome.isolated_count:>2}  {verdict:5}  "
            f"-ln P(whole) = {outcome.whole_neglog:.5f}  "
            f"-ln P(D&m) + -ln P(brItIS) = {outcome.parts_neglog:.5f}\n")
    first = result.first
    out.write(
        f"first split at x={first.isolated_count}: "
        f"{first.whole_neglog:.5f} (whole) vs {first.parts_neglog:.5f} (parts)\n")


def _write_growth(spec, curves, out, report):
    model, actual = curves
    writer = csv.writer(out)
    writer.writerow(["source", "utterance_index", "tokens", "lexicon_size"])
    for curve in (actual, model):
        for index, (tokens, size) in enumerate(curve.points, start=1):
            writer.writerow([curve.source, index, f"{tokens:.2f}", f"{size:.2f}"])
    for curve in (actual, model):
        report.write(f"{curve.source}: fitted k = {curve.k:.3f} for size = k*sqrt(tokens)\n")


def _write_matrix(spec, cells, out, report):
    writer = csv.writer(out)
    writer.writerow(["model", "phoneme_mode", "precision", "recall", "lexicon_precision"])
    for cfg, block in cells:
        writer.writerow([f"{cfg.order}-gram", cfg.phoneme_mode.value,
                         f"{block.precision:.4f}", f"{block.recall:.4f}",
                         f"{block.lexicon_precision:.4f}"])


# Every flag any command takes, as add_argument keywords.  A flag left
# unset parses to None and the ExperimentSpec default stands; a help text
# with %(default)s shows the default of the command that takes the flag.
_FLAGS = {
    "--corpus": dict(dest="corpus_path", required=True, metavar="PATH",
                     help="reference corpus file, one utterance per line"),
    "--order": dict(type=int, choices=(1, 2, 3), help="n-gram model order (default 1)"),
    "--phoneme-mode": dict(choices=[m.value for m in PhonemeMode],
                           help="how phoneme frequencies are learned (default lexicon)"),
    "--require-vowel": dict(action="store_true",
                            help="only consider words containing a vowel"),
    "--out": dict(dest="out_path", metavar="PATH",
                  help="write primary output to PATH instead of stdout"),
    "--runs": dict(type=int, help="number of runs to average (default %(default)s)"),
    "--seed": dict(dest="base_seed", type=int, help="base seed; run r uses seed+r (default 0)"),
    "--block-size": dict(type=int,
                         help="utterances per scoring block (default %(default)s)"),
    "--lexicon-seen-only": dict(action="store_true",
                                help="audit the learned lexicon against reference words "
                                     "seen so far, training words included, instead of "
                                     "the full reference lexicon"),
    "--train-frac": dict(dest="train_fraction", type=float,
                         help="initial corpus fraction committed as training (default 0)"),
    "--baseline-random": dict(dest="baseline", action="store_true",
                              help="score the boundary-count-aware random baseline instead"),
    "--no-permute": dict(action="store_true", help="keep corpus order in every run"),
    "--sweep-step": dict(type=int, help="training-set increment in utterances (default 100)"),
    "--sweep-cap": dict(type=float, help="largest training fraction (default 0.75)"),
}

_MODEL = ("--order", "--phoneme-mode", "--require-vowel", "--out")
_RUNS = ("--runs", "--seed")

# command -> (help, name of its run_* function, writer, the flags the two
# read, the defaults the command gives them).  The run function is looked
# up by name each time a command runs, so a wrapper installed on the module
# attribute (a profiler's timer, a test double) sees the call.
_COMMANDS = {
    "segment": ("segment a corpus incrementally, print the result",
                "run_segment", _write_segmentations, ("--corpus", *_MODEL), {}),
    "eval": ("single run in corpus order, scored in blocks",
             "run_eval", _write_blocks,
             ("--corpus", *_MODEL, "--seed", "--block-size", "--lexicon-seen-only",
              "--train-frac", "--baseline-random"),
             {"block_size": _EVAL_BLOCK_SIZE}),
    "permute-average": ("average runs over corpus permutations",
                        "run_permute_average", _write_blocks,
                        ("--corpus", *_MODEL, *_RUNS, "--block-size", "--lexicon-seen-only",
                         "--no-permute", "--baseline-random"),
                        {"runs": 50, "block_size": _PERMUTE_BLOCK_SIZE}),
    "train-sweep": ("sweep supervised training amounts",
                    "run_train_sweep", _write_sweep,
                    ("--corpus", *_MODEL, *_RUNS, "--lexicon-seen-only",
                     "--sweep-step", "--sweep-cap"),
                    {"runs": 25}),
    "fully-trained": ("train on the whole corpus, test on a second copy",
                      "run_fully_trained", _write_mismatches, ("--corpus", *_MODEL), {}),
    "scenario-damn-british": ("isolated-evidence threshold for splitting a fused word",
                              "run_damn_british", _write_scenario, _MODEL, {}),
    "lexicon-growth": ("lexicon size against tokens processed",
                       "run_lexicon_growth", _write_growth,
                       ("--corpus", *_MODEL, *_RUNS, "--no-permute"), {"runs": 1}),
    "phoneme-modes": ("orders 1-3 crossed with phoneme modes, whole-corpus scores",
                      "run_phoneme_mode_matrix", _write_matrix,
                      ("--corpus", "--require-vowel", "--out", "--lexicon-seen-only"), {}),
}


def _run_command(spec: ExperimentSpec) -> int:
    """Run the spec's command, then write its result.

    The primary output goes to spec.out_path with the report (summary
    table or fit) on stdout, or, without an output path, to stdout with the
    report on stderr.  The file is opened only once the run has succeeded.
    """
    _, run_name, write, _, _ = _COMMANDS[spec.command]
    result = globals()[run_name](spec)
    if spec.out_path:
        with open(spec.out_path, "w", encoding="utf-8", newline="") as out:
            write(spec, result, out, sys.stdout)
    else:
        write(spec, result, sys.stdout, sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Command line


class _Parser(argparse.ArgumentParser):
    # corpus/config problems exit 1; argparse's default usage-error code is 2,
    # which is reserved for internal assertion failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="segdisc",
                     description="Incremental word discovery in unsegmented phonemic utterances.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, _, _, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(**{name: value for name, value in vars(args).items()
                                 if value is not None})
        return _run_command(spec)
    except (CorpusError, OSError, ValueError) as exc:
        print(f"segdisc: error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"segdisc: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
