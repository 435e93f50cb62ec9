"""Benchmark for segdisc: paper-scale synthetic corpus, three workloads.

    python3 perfbench/run.py --workload incremental --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Runs from the root of a checkout and imports the package from its `src/`.
With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs
one untraced and one traced round and reports the per-layer metrics.  It
prints every metric by name with its unit, then, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics.  It exits 1 when any output check fails.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("incremental", "long-utterances", "permute-pool")
DEFAULT_SEED = 1
SETUP_REPS = 9
SETTINGS = (1, 2, 3)

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("unit_ms.1", "ms"), ("unit_ms.2", "ms"), ("unit_ms.3", "ms")]


def _per_layer_names() -> list[tuple[str, str]]:
    names = [("corpus.load_s", "s"), ("corpus.permute_s", "s"), ("tables.train_s", "s")]
    for stem in ("tables.commit_s", "estimator.scorer_build_s",
                 "segmenter.segment_s", "segmenter.search_s"):
        names += [(f"{stem}.o{k}", "s") for k in (1, 2, 3)]
    names += [("evaluation.score_blocks_s", "s"), ("harness.run_s", "s"),
              ("harness.output_s", "s"), ("harness.pool_efficiency", "ratio")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.overhead_frac", "ratio"), ("trace.coverage_frac", "ratio")]
    names += [("corpus.utterances", "count"), ("corpus.tokens", "count"),
              ("corpus.types", "count"), ("corpus.phonemes", "count"),
              ("corpus.phonemes_per_utt", "phonemes"), ("corpus.max_phonemes", "count"),
              ("estimator.substrings", "count")]
    names += [(f"estimator.lexicon_substring_ratio.o{k}", "ratio") for k in (1, 2, 3)]
    names += [(f"tables.lexicon_size.o{k}", "count") for k in (1, 2, 3)]
    names += [("tables.bigram_types", "count"), ("tables.trigram_types", "count")]
    for k in (1, 2, 3):
        for label in ("1-8", "9-16", "17-32", "33-up"):
            names += [(f"segmenter.latency_p50_ms.o{k}.{label}", "ms"),
                      (f"segmenter.latency_p99_ms.o{k}.{label}", "ms"),
                      (f"segmenter.latency_n.o{k}.{label}", "count")]
    return names


PER_LAYER = _per_layer_names()


def _import_package() -> None:
    """Put the checkout's src/ first on the path and import the package
    from there, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "segdisc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}")
    sys.path.insert(0, str(src))
    import segdisc
    if Path(segdisc.__file__).resolve().parent != (src / "segdisc").resolve():
        sys.exit(f"perfbench: imported segdisc from {segdisc.__file__}, not {src}")


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _setup(args, work: Path):
    """Generate, write, load and train SETUP_REPS times; the median of the
    scaled times is setup_s."""
    import corpusgen
    import workloads as wl
    from segdisc.corpus import Utterance, load_corpus

    times = []
    sizes = {"utterances": args.utterances, "stress_per_length": args.stress}
    path = work / "corpus.txt"
    for _ in range(SETUP_REPS):
        gc.collect()
        with wl.SpeedSampler() as speed:
            synthetic = corpusgen.generate(args.seed, **{k: v for k, v in sizes.items() if v})
            path.write_text(synthetic.text(), encoding="ascii")
            corpus = load_corpus(path)
            trained = wl.train(corpus)
        times.append(speed.times()[1] / 1e9)
    inputs = wl.Inputs(corpus, path, tuple(Utterance.from_words(w) for w in synthetic.stress),
                       trained, work, args.seed)
    return inputs, synthetic, statistics.median(times)


def _unit_fn(workload: str, inputs):
    import workloads as wl
    return {"incremental": lambda k, tr=None: wl.incremental_unit(inputs, k, tr),
            "long-utterances": lambda k, tr=None: wl.long_unit(inputs, k, tr),
            "permute-pool": lambda k, tr=None: wl.permute_unit(inputs, k, tr)}[workload]


def _check_unit(workload, inputs, setting, unit, checks, first) -> None:
    """Checks that apply to every unit; `first` is the setting's first unit."""
    import workloads as wl
    what = f"{workload} setting {setting}"
    if workload == "permute-pool":
        wl.check_permute_csv(inputs, unit, checks, what)
    else:
        wl.check_segmentations(unit.extra["pairs"], checks, what)
    if workload == "incremental":
        checks.check(sum(b.utterances for b in unit.extra["blocks"]) == len(inputs.corpus),
                     f"{what}: score_blocks does not cover every utterance")
    if first is not None:
        checks.check(unit.digest == first.digest, f"{what}: output differs between repeats")


def _measure(args, workload, inputs, checks):
    """Repeat each setting's unit within its share of --seconds."""
    unit_fn = _unit_fn(workload, inputs)
    budget = args.seconds / len(SETTINGS)
    results = {}
    for setting in SETTINGS:
        units = []
        spent = last = 0.0
        while not units or spent + last <= budget:
            gc.collect()
            start = perf_counter()
            unit = unit_fn(setting)
            last = perf_counter() - start
            spent += last
            _check_unit(workload, inputs, setting, unit, checks, units[0] if units else None)
            if units:
                unit.extra = {}
            units.append(unit)
        results[setting] = units
    return results


def _unit_ms(workload, inputs, units) -> float:
    """Median scaled ms per item: per utterance of a pass, per 100-phoneme
    stress utterance, per permuted run."""
    if workload == "long-utterances":
        longest = max(len(u.raw) for u in inputs.stress)
        times = [ns for unit in units
                 for ns, u in zip(unit.item_ns, inputs.stress) if len(u.raw) == longest]
        return statistics.median(times) / 1e6
    return statistics.median(unit.scaled_ns / unit.items for unit in units) / 1e6


def _cross_checks(args, workload, inputs, results, checks, digests) -> None:
    """Checks across settings, against harness.run_eval and the golden file."""
    import workloads as wl
    if workload == "incremental":
        for k in SETTINGS:
            wl.crosscheck_eval(inputs, k, results[k][0], checks)
    if workload == "permute-pool":
        checks.check(results[1][0].extra["csv"] == results[2][0].extra["csv"],
                     "permute-pool: CSV at SEGDISC_THREADS=1 and 2 differ")
    label = {"permute-pool": ("w1", "w2", "baseline")}.get(workload, ("o1", "o2", "o3"))
    for k in SETTINGS:
        digests[label[k - 1]] = results[k][0].digest
    if args.seed == DEFAULT_SEED and args.utterances is None and args.stress is None:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())[workload]
        for name, digest in golden.items():
            checks.check(digests.get(name) == digest,
                         f"{workload} {name}: digest {digests.get(name)} is not the golden {digest}")


def _trace_metrics(args, workload, inputs, synthetic, checks) -> dict[str, float]:
    """One untraced and one traced round; per-layer metrics from the spans."""
    import workloads as wl
    from tracing import Tracer, span_ns

    unit_fn = _unit_fn(workload, inputs)
    start = perf_counter_ns()
    wl.setup_spans(inputs, None)
    untraced = perf_counter_ns() - start
    for setting in SETTINGS:
        gc.collect()
        untraced += unit_fn(setting).wall_ns

    tracer = Tracer()
    start = perf_counter_ns()
    wl.setup_spans(inputs, tracer)
    traced = perf_counter_ns() - start
    units = {}
    spans = {}
    for setting in SETTINGS:
        gc.collect()
        first = len(tracer.spans)
        units[setting] = unit_fn(setting, tracer)
        spans[setting] = tracer.spans[first:]
        traced += units[setting].wall_ns
    for setting in SETTINGS:
        _check_unit(workload, inputs, setting, units[setting], checks, None)
    probes = sum(s[4] - s[3] for s in tracer.spans if s[2].endswith(".probe"))
    tracer.write(inputs.work / f"trace-{workload}-seed{args.seed}.jsonl")

    m = {name: 0.0 for name, _ in PER_LAYER}
    m["corpus.load_s"] = span_ns(tracer.spans, "corpus.load_corpus") / 1e9
    m["corpus.permute_s"] = span_ns(tracer.spans, "corpus.permute.probe") / 1e9
    m["tables.train_s"] = span_ns(tracer.spans, "tables.train") / 1e9
    m["evaluation.score_blocks_s"] = span_ns(tracer.spans, "evaluation.score_blocks") / 1e9
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.overhead_frac"] = (traced - probes) / untraced
    m["trace.coverage_frac"] = tracer.coverage()

    shape = synthetic.shape()
    for key in ("utterances", "tokens", "types", "phonemes", "phonemes_per_utt", "max_phonemes"):
        m[f"corpus.{key}"] = shape[key]
    m["tables.bigram_types"] = inputs.trained.n2
    m["tables.trigram_types"] = inputs.trained.n3

    if workload == "permute-pool":
        run_ns = span_ns(tracer.spans, "harness.run_permute_average")
        main_ns = span_ns(tracer.spans, "harness.main")
        m["harness.run_s"] = run_ns / 1e9
        m["harness.output_s"] = (main_ns - run_ns) / 1e9
        m["harness.pool_efficiency"] = (span_ns(spans[1], "harness.main")
                                        / (2 * span_ns(spans[2], "harness.main")))
        m["estimator.substrings"] = _substrings(u.raw for u in inputs.corpus)
        return m

    utterances = inputs.corpus if workload == "incremental" else inputs.stress
    m["estimator.substrings"] = _substrings(u.raw for u in utterances)
    lengths = [len(u.raw) for u in utterances]
    for k in SETTINGS:
        segment_ns = [s[4] - s[3] for s in spans[k] if s[2] == "segmenter.segment"]
        build = span_ns(spans[k], "estimator.scorer_build.probe")
        m[f"tables.commit_s.o{k}"] = span_ns(spans[k], "tables.commit") / 1e9
        m[f"estimator.scorer_build_s.o{k}"] = build / 1e9
        m[f"segmenter.segment_s.o{k}"] = sum(segment_ns) / 1e9
        m[f"segmenter.search_s.o{k}"] = (sum(segment_ns) - build) / 1e9
        for label, times in wl.bucket_latencies(lengths, segment_ns).items():
            m[f"segmenter.latency_p50_ms.o{k}.{label}"] = wl.percentile(times, 50)
            m[f"segmenter.latency_p99_ms.o{k}.{label}"] = wl.percentile(times, 99)
            m[f"segmenter.latency_n.o{k}.{label}"] = len(times)
        if workload == "incremental":
            pairs = units[k].extra["pairs"]
            m[f"estimator.lexicon_substring_ratio.o{k}"] = _replayed_ratio(pairs)
            m[f"tables.lexicon_size.o{k}"] = len(units[k].extra["tables"].unigrams)
        else:
            found = sum(_in_lexicon(u.raw, inputs.trained.unigrams) for u in utterances)
            m[f"estimator.lexicon_substring_ratio.o{k}"] = (
                found / _substrings(u.raw for u in utterances))
            m[f"tables.lexicon_size.o{k}"] = len(inputs.trained.unigrams)
    return m


def _substrings(strings) -> int:
    """Non-empty substrings of the strings, counted by position."""
    return sum(len(s) * (len(s) + 1) // 2 for s in strings)


def _in_lexicon(u: str, lexicon) -> int:
    """Substrings of `u` that are lexicon words."""
    n = len(u)
    return sum(1 for j in range(n) for i in range(j + 1, n + 1) if u[j:i] in lexicon)


def _replayed_ratio(pairs) -> float:
    """Lexicon substring ratio as each scorer saw it: the lexicon before
    each utterance is every word committed earlier in the pass."""
    lexicon: set[str] = set()
    found = 0
    for seg, _ in pairs:
        found += _in_lexicon(seg.phonemes, lexicon)
        lexicon.update(seg.words)
    return found / _substrings(seg.phonemes for seg, _ in pairs)


def run_workload(args) -> int:
    _import_package()
    work = BENCH_DIR / "work" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    import workloads as wl

    checks = wl.Checks()
    inputs, synthetic, setup_s = _setup(args, work)
    # The corpus and tables live for the whole run; frozen, they stay out of
    # the collector's full passes, whose timing otherwise depends on the
    # allocation history and makes long searches bimodal from run to run.
    gc.collect()
    gc.freeze()
    checks.check(all(u.words == w for u, w in zip(inputs.corpus, synthetic.utterances))
                 and len(inputs.corpus) == len(synthetic.utterances),
                 "load_corpus does not return the generated corpus")
    digests: dict[str, str] = {}
    facts = _machine()
    if args.workload == "permute-pool":
        inputs.pool_reference = wl.ParallelReference(2)
    try:
        if args.trace:
            metrics = _trace_metrics(args, args.workload, inputs, synthetic, checks)
        else:
            results = _measure(args, args.workload, inputs, checks)
    finally:
        if inputs.pool_reference:
            inputs.pool_reference.close()
    if args.trace:
        units = PER_LAYER
    else:
        _cross_checks(args, args.workload, inputs, results, checks, digests)
        metrics = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
        for k in SETTINGS:
            metrics[f"unit_ms.{k}"] = _unit_ms(args.workload, inputs, results[k])
        measured = [unit for k in SETTINGS for unit in results[k]]
        facts["reference_ms"] = (sum(u.wall_ns for u in measured)
                                 / sum(u.scaled_ns for u in measured) * wl.REF_NOMINAL_NS / 1e6)
        units = END_TO_END

    failed = len(checks.failures)
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("# corpus " + " ".join(f"{k}={v:.4g}" for k, v in synthetic.shape().items()))
    for name, digest in digests.items():
        print(f"# digest {name} {digest}")
    for failure in checks.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# checks attempted={checks.attempted} failed={failed} "
          f"failed_frac={failed / checks.attempted:.6g}")
    for name, unit in units:
        print(f"{name:44} {metrics[name]:.6g} {unit}")
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"machine": facts, "corpus": synthetic.shape(), "digests": digests,
         "failures": checks.failures, **result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload with --trace 0 and 1, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            for flag, value in (("--utterances", args.utterances), ("--stress", args.stress)):
                if value is not None:
                    cmd += [flag, str(value)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"# {workload} trace {trace} exited {proc.returncode}")
                combined["correct"] = False
                combined["failed"] += 1
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the measured units, split evenly between "
                             "the workload's three settings; each runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--utterances", type=int,
                        help="corpus size (default: the paper's 9790); for smoke tests")
    parser.add_argument("--stress", type=int,
                        help="stress utterances per length (default 9); for smoke tests")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
