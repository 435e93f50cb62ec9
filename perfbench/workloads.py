"""The benchmark's three workloads and the checks on their outputs.

Each workload has three settings, measured as units of work:

* `incremental`: one pass in corpus order (segment, then commit, then
  `score_blocks` in blocks of 500) over the whole corpus on fresh tables,
  at orders 1, 2 and 3.  This is what users run.
* `long-utterances`: `segment` without commit over the long-utterance
  stress set, on tables trained on the corpus, at orders 1, 2 and 3.  It
  exposes the n^3/n^4 search that ~10-phoneme utterances hide.
* `permute-pool`: `harness.main(["permute-average", ...])` at order 1 with
  SEGDISC_THREADS=1, then 2, then the random baseline at 2.  The only path
  through the process pool, `permute` and the CSV writer; the baseline
  skips the search altogether.

Machines shared with other jobs change speed by 20% or more within a
second, so every measured call in this process runs under a SpeedSampler:
it times a short fixed reference loop on entry and every 50 ms, and scales
the work between two samples by the sample before it (`scaled_ns`), giving
the time on a machine where the reference loop takes exactly
REF_NOMINAL_NS.  A pool run uses every CPU, so it is scaled by the slowest
of the reference loops timed on each CPU at once, before and after it.
Raw wall times are kept alongside.

A unit takes an optional Tracer.  With one, it records spans around every
call into a layer (calls the package makes inside `process_utterance` and
`harness.main` are timed by wrappers swapped in for that unit), plus extra
probe calls (a second `UtteranceScorer` per
utterance, `permute` per run) that time layers the package calls
internally.  Probe spans are named `*.probe` so the tracing overhead can
leave them out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import signal
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter_ns

from segdisc import harness, segmenter
from segdisc.corpus import Corpus, Utterance, load_corpus, permute, save_corpus
from segdisc.estimator import UtteranceScorer
from segdisc.evaluation import score_blocks
from segdisc.segmenter import LearnerConfig, process_utterance, segment, train_utterance
from segdisc.tables import CountTables

from tracing import Tracer

EVAL_BLOCK = 500
#: Utterances in the corpus prefix that `harness.run_eval` re-runs as a
#: cross-check of the benchmark's own loop.
CROSSCHECK_PREFIX = 1000
PERMUTE_RUNS = 2
PERMUTE_BLOCK = 100
REF_ITERS = 2500
REF_NOMINAL_NS = 1_000_000
REF_REPEATS = 5
SAMPLE_PERIOD_S = 0.05
_REF_KEYS = [str(i) for i in range(512)]
#: Latency buckets by utterance length in phonemes: (label, low, high).
BUCKETS = (("1-8", 1, 8), ("9-16", 9, 16), ("17-32", 17, 32), ("33-up", 33, 10**9))


@dataclass
class Checks:
    """Checked operations and the ones that failed, with a reason each."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Inputs:
    """What set-up leaves for the measured units."""

    corpus: Corpus
    corpus_path: Path
    stress: tuple[Utterance, ...]
    trained: CountTables
    work: Path
    seed: int
    #: For permute-pool: times the reference on as many CPUs as the pool uses.
    pool_reference: ParallelReference | None = None


@dataclass
class Unit:
    """One measured unit: wall and scaled time, per-item times, outputs."""

    wall_ns: int
    scaled_ns: float
    items: int
    item_ns: list[float]
    digest: str
    extra: dict = field(default_factory=dict)


@contextlib.contextmanager
def timing(owner, name: str, marks: list):
    """Swap `owner.name` for a wrapper that appends (start, end) of every
    call to `marks`, for the length of the block.  The package looks its
    own functions up at call time, so this times calls it makes inside."""
    inner = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return inner(*args, **kwargs)
        finally:
            marks.append((t0, perf_counter_ns()))

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, inner)


def reference_ns() -> int:
    """Time of a fixed loop of dict, string-key and float work, the kind
    the search does; about 1 ms on the machine the benchmark was set up on."""
    keys = _REF_KEYS
    counts: dict[str, float] = {}
    log = math.log
    start = perf_counter_ns()
    for i in range(REF_ITERS):
        key = keys[i & 511]
        counts[key] = counts.get(key, 0.0) - log(i + 1)
    return perf_counter_ns() - start


def reference_median_ns() -> float:
    return statistics.median(reference_ns() for _ in range(REF_REPEATS))


class SpeedSampler:
    """Times the reference loop on entry and then every SAMPLE_PERIOD_S
    seconds from a SIGALRM handler, on this (the main) thread, while a
    call runs.  The work between two samples is scaled by the sample taken
    just before it, as if the call were cut into pieces with a reference
    between each; the samples' own time is left out of the work."""

    def __init__(self):
        self.marks: list[tuple[int, int, int]] = []  # (start, end, ref ns)
        self.end = 0

    def _sample(self, *_) -> None:
        start = perf_counter_ns()
        ref = reference_ns()
        self.marks.append((start, perf_counter_ns(), ref))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter_ns()
        signal.signal(signal.SIGALRM, self._previous)

    def times(self) -> tuple[int, float]:
        """(work ns, scaled work ns) inside the block."""
        work = 0
        scaled = 0.0
        starts = [start for start, _, _ in self.marks[1:]] + [self.end]
        for (_, end, ref), next_start in zip(self.marks, starts):
            work += next_start - end
            scaled += (next_start - end) * REF_NOMINAL_NS / ref
        return work, scaled


class ParallelReference:
    """The reference loop timed in `workers` processes at once.  A job
    spread over that many processes runs at the pace of the slowest CPU,
    so the slowest reference time scales it.  The workers are forked, as
    the harness's own are: a spawn pool would also start multiprocessing's
    resource tracker, a process that outlives the benchmark."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))

    def ns(self) -> float:
        futures = [self._pool.submit(reference_median_ns) for _ in range(self.workers)]
        return max(future.result() for future in futures)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def stream_digest(segmentations) -> str:
    """sha256 of the segmentation stream, one space-joined line each."""
    h = hashlib.sha256()
    for seg in segmentations:
        h.update((" ".join(seg.words) + "\n").encode("ascii"))
    return h.hexdigest()


def train(corpus: Corpus) -> CountTables:
    """Supervised training: commit every reference segmentation."""
    tables = CountTables()
    cfg = LearnerConfig()
    for utterance in corpus:
        train_utterance(tables, utterance.words, cfg)
    return tables


def setup_spans(inputs: Inputs, tracer: Tracer | None) -> None:
    """Load and train again, traced, so every workload times those layers."""
    root = tracer.begin("bench.setup") if tracer else 0
    t0 = perf_counter_ns()
    corpus = load_corpus(inputs.corpus_path)
    t1 = perf_counter_ns()
    train(corpus)
    t2 = perf_counter_ns()
    if tracer:
        tracer.record("corpus.load_corpus", t0, t1, root)
        tracer.record("tables.train", t1, t2, root)
        tracer.end(root)


# ---------------------------------------------------------------------------
# incremental


def incremental_unit(inputs: Inputs, order: int, tracer: Tracer | None = None) -> Unit:
    """One pass in corpus order at `order` on fresh tables, through the
    package's own per-utterance step, `process_utterance` (segment, then
    commit)."""
    cfg = LearnerConfig(order)
    tables = CountTables()
    lexicon = inputs.corpus.lexicon()
    pairs = []
    if tracer is None:
        with SpeedSampler() as speed:
            for utterance in inputs.corpus:
                pairs.append((process_utterance(tables, utterance.raw, cfg), utterance.words))
            blocks = score_blocks(pairs, EVAL_BLOCK, lexicon)
        wall, scaled = speed.times()
        return Unit(wall, scaled, len(pairs), [], stream_digest(seg for seg, _ in pairs),
                    {"pairs": pairs, "blocks": blocks, "tables": tables})
    root = tracer.begin(f"bench.incremental.o{order}")
    record = tracer.record
    searches: list[tuple[int, int]] = []
    commits: list[tuple[int, int]] = []
    start = perf_counter_ns()
    with timing(segmenter, "segment", searches), timing(CountTables, "commit", commits):
        for i, utterance in enumerate(inputs.corpus):
            u = utterance.raw
            t0 = perf_counter_ns()
            UtteranceScorer(tables, u)
            t1 = perf_counter_ns()
            seg = process_utterance(tables, u, cfg)
            t2 = perf_counter_ns()
            pairs.append((seg, utterance.words))
            record("estimator.scorer_build.probe", t0, t1, root, i)
            step = record("segmenter.process_utterance", t1, t2, root, i)
            record("segmenter.segment", *searches[i], step, i)
            record("tables.commit", *commits[i], step, i)
    t0 = perf_counter_ns()
    blocks = score_blocks(pairs, EVAL_BLOCK, lexicon)
    end = perf_counter_ns()
    record("evaluation.score_blocks", t0, end, root)
    tracer.end(root)
    return Unit(end - start, end - start, len(pairs), [],
                stream_digest(seg for seg, _ in pairs),
                {"pairs": pairs, "blocks": blocks, "tables": tables})


def crosscheck_eval(inputs: Inputs, order: int, unit: Unit, checks: Checks) -> None:
    """`harness.run_eval` on a corpus prefix must score the benchmark's own
    predictions for that prefix identically, block for block."""
    n = min(CROSSCHECK_PREFIX, len(inputs.corpus))
    prefix = Corpus(inputs.corpus.utterances[:n])
    path = inputs.work / "prefix.txt"
    save_corpus(prefix, path)
    spec = harness.ExperimentSpec("eval", corpus_path=str(path), order=order,
                                  block_size=EVAL_BLOCK)
    theirs = harness.run_eval(spec).per_run[0][1]
    ours = score_blocks(unit.extra["pairs"][:n], EVAL_BLOCK, prefix.lexicon())
    checks.check(tuple(theirs) == tuple(ours),
                 f"incremental o{order}: run_eval disagrees with the benchmark loop")


def check_segmentations(pairs, checks: Checks, what: str) -> None:
    """Every segmentation must concatenate back to its input."""
    for seg, reference in pairs:
        raw = "".join(reference)
        checks.check("".join(seg.words) == raw and seg.phonemes == raw,
                     f"{what}: segmentation of {raw!r} does not concatenate back")


# ---------------------------------------------------------------------------
# long-utterances


def long_unit(inputs: Inputs, order: int, tracer: Tracer | None = None) -> Unit:
    """`segment` without commit over the stress set at `order`."""
    cfg = LearnerConfig(order)
    tables = inputs.trained
    segs = []
    item_ns = []
    wall = 0
    root = tracer.begin(f"bench.long.o{order}") if tracer else 0
    for i, utterance in enumerate(inputs.stress):
        u = utterance.raw
        if tracer:
            t0 = perf_counter_ns()
            UtteranceScorer(tables, u)
            t1 = perf_counter_ns()
            seg, _ = segment(tables, u, cfg)
            t2 = perf_counter_ns()
            tracer.record("estimator.scorer_build.probe", t0, t1, root, i)
            tracer.record("segmenter.segment", t1, t2, root, i)
            took = scaled = t2 - t0
        else:
            with SpeedSampler() as speed:
                seg, _ = segment(tables, u, cfg)
            took, scaled = speed.times()
        wall += took
        item_ns.append(scaled)
        segs.append(seg)
    if tracer:
        tracer.end(root)
    return Unit(wall, sum(item_ns), len(segs), item_ns, stream_digest(segs),
                {"pairs": list(zip(segs, (u.words for u in inputs.stress)))})


# ---------------------------------------------------------------------------
# permute-pool

#: (label, SEGDISC_THREADS, random baseline)
PERMUTE_SETTINGS = (("w1", 1, False), ("w2", 2, False), ("baseline", 2, True))


def permute_unit(inputs: Inputs, setting: int, tracer: Tracer | None = None) -> Unit:
    """One `permute-average` command through `harness.main`."""
    label, threads, baseline = PERMUTE_SETTINGS[setting - 1]
    out = inputs.work / f"permute-{label}.csv"
    argv = ["permute-average", "--corpus", str(inputs.corpus_path), "--order", "1",
            "--block-size", str(PERMUTE_BLOCK), "--runs", str(PERMUTE_RUNS),
            "--seed", str(inputs.seed), "--out", str(out)]
    if baseline:
        argv.append("--baseline-random")
    previous = os.environ.get("SEGDISC_THREADS")
    os.environ["SEGDISC_THREADS"] = str(threads)
    root = tracer.begin(f"bench.permute.{label}") if tracer else 0
    run_spans: list[tuple[int, int]] = []
    # `main` looks the function up in its module, so a wrapper swapped in
    # for this one command times the run apart from the output
    traced_run = (timing(harness, "run_permute_average", run_spans) if tracer
                  else contextlib.nullcontext())
    # the pool runs on every CPU, so its speed is that of the slowest; a
    # serial run is sampled while it runs
    parallel = tracer is None and threads > 1
    before = inputs.pool_reference.ns() if parallel else 0
    sampler = SpeedSampler() if tracer is None and not parallel else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(io.StringIO()), traced_run, sampler:
            start = perf_counter_ns()
            status = harness.main(argv)
            end = perf_counter_ns()
    finally:
        if previous is None:
            del os.environ["SEGDISC_THREADS"]
        else:
            os.environ["SEGDISC_THREADS"] = previous
    took = scaled = end - start
    if parallel:
        scaled = took * REF_NOMINAL_NS * 2 / (before + inputs.pool_reference.ns())
    elif tracer is None:
        took, scaled = sampler.times()
    if tracer:
        main_id = tracer.record("harness.main", start, end, root)
        for t0, t1 in run_spans:
            tracer.record("harness.run_permute_average", t0, t1, main_id)
        for r in range(PERMUTE_RUNS):
            t0 = perf_counter_ns()
            permute(inputs.corpus, inputs.seed + r)
            tracer.record("corpus.permute.probe", t0, perf_counter_ns(), root, r)
        tracer.end(root)
        # the traced time takes in the probes, as in the other workloads;
        # the tracing overhead leaves them out again
        took = scaled = perf_counter_ns() - start
    data = out.read_bytes()
    return Unit(took, scaled, PERMUTE_RUNS, [], hashlib.sha256(data).hexdigest(),
                {"status": status, "csv": data})


def check_permute_csv(inputs: Inputs, unit: Unit, checks: Checks, label: str) -> None:
    """Exit status 0 and one CSV row per run and block."""
    checks.check(unit.extra["status"] == 0, f"permute-pool {label}: exit status "
                 f"{unit.extra['status']}")
    blocks = -(-len(inputs.corpus) // PERMUTE_BLOCK)
    rows = unit.extra["csv"].decode("utf-8").splitlines()
    checks.check(len(rows) == 1 + PERMUTE_RUNS * blocks,
                 f"permute-pool {label}: {len(rows)} CSV lines")


# ---------------------------------------------------------------------------
# latency buckets


def bucket_latencies(lengths, item_ns) -> dict[str, list[float]]:
    """Per-utterance times in ms, grouped by length bucket."""
    out: dict[str, list[float]] = {label: [] for label, _, _ in BUCKETS}
    for n, ns in zip(lengths, item_ns):
        for label, low, high in BUCKETS:
            if low <= n <= high:
                out[label].append(ns / 1e6)
                break
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
