"""Differential sweep: do two source trees segment alike, bit for bit?

    python3 tools/diff_sweep.py OLD NEW
    python3 tools/diff_sweep.py OLD NEW --orders 1 2 3

OLD and NEW are checkouts of this repository.  Each tree's `src/segdisc` is
imported under its own package name, so both run in one process on inputs
built once.  The inputs come from NEW's `perfbench/corpusgen.py`: for every
seed in SEEDS, phoneme mode, vowel rule (off, on) and order (--orders, 2 and
3 by default), the sweep compares

* the first UTTERANCES utterances of the corpus, segmented and committed
  in turn on fresh tables (the incremental learn loop), and after each
  commit the word_score of every committed word given the words before it;
  the word scores of an even utterance are read right after its commit,
  those of an odd one after the next utterance's segment, so that
  word_score and segment each read first after half the commits;
* the learn loop's score_blocks in blocks of BLOCK against the corpus
  lexicon;
* on tables trained on the whole corpus, each stress utterance, the stress
  set joined into one line, and lines of 50, 300 and 800 random phonemes
  (random.Random(n)).

For every seed it also compares the random baseline over the whole corpus
from random.Random(seed): each utterance's words, and the run's
score_blocks in blocks of BLOCK.

Two segmentations agree when their words and the float.hex of their scores
are equal, two word scores when their float.hex are, two block scores when
their index, utterance count and the float.hex of their precision, recall
and lexicon precision are, two baseline segmentations when their words
are; a tree whose items end before the other's differs there.  The sweep
prints the number of each checked and stops at the first difference, which
it prints whole; it exits 1 then, 0 otherwise.  It uses only the standard
library.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
from itertools import zip_longest
from pathlib import Path

SEEDS = (1, 2)
UTTERANCES = 3000
BLOCK = 100
RANDOM_LENGTHS = (50, 300, 800)
# what a tree that yields fewer items than the other compares with
ENDED = (None, None, "nothing: its items ended here")


def load(tree: Path, name: str):
    """The package in tree/src/segdisc, imported as `name`."""
    package = tree / "src" / "segdisc"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def word_scores(package, tables, k, words, order):
    """(kind, label, what) for each word of utterance k."""
    for j, word in enumerate(words):
        score = package.word_score(tables, words[:j], word, order)
        yield "word score", f"incremental utterance {k}, word {j}", f"{word} score {score.hex()}"


def block_scores(package, pairs, lexicon, run):
    """(kind, label, what) for each block of score_blocks over `pairs`."""
    for b in package.score_blocks(pairs, BLOCK, lexicon):
        yield "block score", f"{run} block {b.block_index}", (
            f"block {b.block_index} of {b.utterances} utterances: precision "
            f"{b.precision.hex()} recall {b.recall.hex()} "
            f"lexicon precision {b.lexicon_precision.hex()}")


def lines(package, generated, mode, vowel, order):
    """(kind, label, what) for every segmentation of one setting of the
    grid, and every word score and block score of its learn loop."""
    cfg = package.LearnerConfig(order=order, phoneme_mode=mode, require_vowel=vowel)
    tables = package.CountTables()
    pending = ()
    pairs = []
    for k, words in enumerate(generated.utterances[:UTTERANCES]):
        seg, score = package.segment(tables, "".join(words), cfg)
        yield "segmentation", f"incremental utterance {k}", f"{seg.words} score {score.hex()}"
        yield from pending
        tables.commit(seg.words, mode)
        pairs.append((seg, words))
        # a generator: it reads nothing until it is iterated
        pending = word_scores(package, tables, k, seg.words, order)
        if k % 2 == 0:
            yield from pending
            pending = ()
    yield from pending
    yield from block_scores(package, pairs, lexicon(generated), "incremental")
    tables = package.CountTables()
    for words in generated.utterances:
        package.train_utterance(tables, words, cfg)
    stress = ["".join(words) for words in generated.stress]
    symbols = package.default_inventory().symbols
    trained = [(f"stress line {k}", u) for k, u in enumerate(stress)]
    trained.append(("joined stress line", "".join(stress)))
    trained += [(f"random line n={n}", "".join(random.Random(n).choices(symbols, k=n)))
                for n in RANDOM_LENGTHS]
    for label, u in trained:
        seg, score = package.segment(tables, u, cfg)
        yield "segmentation", label, f"{seg.words} score {score.hex()}"


def baseline(package, generated, seed):
    """(kind, label, what) for the random baseline's words on every
    utterance of the corpus, drawn from random.Random(seed), and its block
    scores."""
    rng = random.Random(seed)
    pairs = []
    for k, words in enumerate(generated.utterances):
        seg = package.random_baseline("".join(words), len(words) - 1, rng)
        yield "baseline segmentation", f"baseline utterance {k}", repr(seg.words)
        pairs.append((seg, words))
    yield from block_scores(package, pairs, lexicon(generated), "baseline")


def lexicon(generated):
    return {w for words in generated.utterances for w in words}


def counts(checked) -> str:
    return (f"{checked['segmentation']} segmentations, {checked['word score']} word scores, "
            f"{checked['block score']} block scores and "
            f"{checked['baseline segmentation']} baseline segmentations")


def compare(old_items, new_items, checked, setting, old, new) -> bool:
    """Count agreeing items; print the first difference and return False."""
    for (kind, label, a), (_, new_label, b) in zip_longest(old_items, new_items, fillvalue=ENDED):
        if a != b:
            print(f"checked {counts(checked)}; first difference: {setting}, {label or new_label}")
            print(f"  {old}: {a}")
            print(f"  {new}: {b}")
            return False
        checked[kind] += 1
    print(f"{setting}: {counts(checked)} checked so far", file=sys.stderr)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--orders", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args(argv)
    old, new = load(args.old, "segdisc_old"), load(args.new, "segdisc_new")
    # corpusgen imports `segdisc`: let it find NEW's
    sys.modules["segdisc"] = new
    sys.path.insert(0, str(args.new / "perfbench"))
    import corpusgen

    checked = dict.fromkeys(("segmentation", "word score", "block score",
                             "baseline segmentation"), 0)
    for seed in SEEDS:
        generated = corpusgen.generate(seed)
        if not compare(baseline(old, generated, seed), baseline(new, generated, seed),
                       checked, f"seed {seed}, random baseline", args.old, args.new):
            return 1
        for mode in new.PhonemeMode:
            for vowel in (False, True):
                for order in args.orders:
                    setting = f"seed {seed}, order {order}, {mode.value} mode, vowel rule {vowel}"
                    if not compare(lines(old, generated, mode.value, vowel, order),
                                   lines(new, generated, mode.value, vowel, order),
                                   checked, setting, args.old, args.new):
                        return 1
    print(f"checked {counts(checked)}: 0 differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
