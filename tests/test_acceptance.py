"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Criteria 6 and 7 need the full 9790-utterance corpus (see
conftest.full_corpus) and are reported as skipped when it is absent;
criteria 1-5 and 8 are self-contained.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from segdisc import (CountTables, LearnerConfig, PhonemeMode, Segmentation,
                     load_corpus, p_sigma, p_unigram,
                     process_utterance, random_baseline, score_blocks,
                     score_utterance, segment, train_utterance, word_score)
from segdisc.harness import ExperimentSpec, run_damn_british, run_lexicon_growth

F = Fraction


def whole_corpus_scores(corpus, cfg):
    """Single identity-order incremental run scored as one block."""
    tables = CountTables()

    def pairs():
        for utterance in corpus:
            yield process_utterance(tables, utterance.raw, cfg), utterance.words

    return score_blocks(pairs(), None, corpus.lexicon())[0]


# --- criterion 1: isolated-evidence threshold --------------------------------

def test_criterion_1_damn_british_threshold():
    started = time.perf_counter()
    report = run_damn_british(ExperimentSpec(command="scenario-damn-british", order=1))
    elapsed = time.perf_counter() - started
    assert report.first.isolated_count == 7
    assert abs(report.first.whole_neglog - 2.56495) < 1e-4
    assert abs(report.first.parts_neglog - (1.8718 + 0.619039)) < 1e-4
    assert abs(report.first.parts_neglog - 2.49084) < 1e-4
    for outcome in report.outcomes:
        assert outcome.split == (outcome.isolated_count >= 7)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (damn-british threshold x=7, scores to 1e-4): PASS in {elapsed:.3f}s")


# --- criterion 2: search optimality against exhaustive enumeration -----------

def _enumerate_minimum(tables, u, order):
    n = len(u)
    best = math.inf
    for mask in range(1 << (n - 1)):
        edges = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        total = 0.0
        context = []
        for a, b in zip(edges, edges[1:]):
            total += word_score(tables, tuple(context), u[a:b], order)
            context.append(u[a:b])
        if total < best:
            best = total
    return best


def test_criterion_2_search_matches_enumeration():
    started = time.perf_counter()
    rng = random.Random(20240)
    pool = ["a", "b", "ab", "ba", "aab", "bb", "abab"]
    checked = 0
    for trial in range(210):
        tables = CountTables()
        for _ in range(rng.randint(0, 10)):
            tables.commit(rng.choices(pool, k=rng.randint(1, 5)),
                          rng.choice(list(PhonemeMode)))
        length = 12 if trial % 7 == 0 else rng.randint(1, 12)
        u = "".join(rng.choices("ab", k=length))
        for order in (1, 2, 3):
            _, score = segment(tables, u, LearnerConfig(order=order))
            assert score == _enumerate_minimum(tables, u, order), (trial, order, u)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 (exact optimality, {checked} states x 3 orders): PASS in {elapsed:.1f}s")


# --- criterion 3: estimator identities ----------------------------------------

def test_criterion_3_estimator_identities():
    rng = random.Random(77)
    pool = ["a", "b", "ab", "tu", "mi", "lUk"]
    for _ in range(100):
        tables = CountTables()
        for _ in range(rng.randint(1, 25)):
            tables.commit(rng.choices(pool, k=rng.randint(1, 4)),
                          rng.choice(list(PhonemeMode)))
        familiar = sum(p_unigram(tables, w) for w in tables.unigrams)
        escape = F(len(tables.unigrams), len(tables.unigrams) + tables.s1)
        assert familiar + escape == 1  # exact, in rationals

    tables = CountTables()
    symbols = tables.inventory.symbols
    f_sentinel = F(1, len(symbols) + 1)
    total = 0
    for length in (1, 2, 3):
        total += sum(p_sigma(tables, "".join(chars))
                     for chars in itertools.product(symbols, repeat=length))
        assert total == 1 - (1 - f_sentinel) ** length  # exact, in rationals
    print("\nACCEPTANCE 3 (escape identity and spelling-model sums exact): PASS")


# --- criterion 4: scoring -----------------------------------------------------

def test_criterion_4_scoring():
    predicted = Segmentation.from_words("yu want D6 dOg hQs".split())
    reference = ["yu", "want", "D6", "dOghQs"]
    assert score_utterance(predicted, reference) == (3, 5, 4)

    rng = random.Random(4)
    pairs = []
    for _ in range(24):
        u = "".join(rng.choices("ab", k=rng.randint(2, 8)))
        cut = rng.randint(1, len(u) - 1)
        pairs.append((Segmentation.from_boundaries(u, [cut]),
                      Segmentation.from_boundaries(u, [rng.randint(1, len(u) - 1)]).words))
    lexicon = {w for _, ref in pairs for w in ref}
    baseline = score_blocks(pairs, None, lexicon)[0]
    for _ in range(20):
        rng.shuffle(pairs)
        assert score_blocks(pairs, None, lexicon)[0] == baseline
    print("\nACCEPTANCE 4 (span scoring 3/5/4; block order invariance): PASS")


# --- criterion 5: random baseline ----------------------------------------------

def test_criterion_5_random_baseline():
    rng = random.Random(555)
    for _ in range(400):
        u = "".join(rng.choices("ab", k=rng.randint(1, 15)))
        want = rng.randint(0, len(u) - 1)
        out = random_baseline(u, want, rng)
        assert len(out.words) == want + 1
        assert out.phonemes == u

    draws = 10_000
    rng = random.Random(9001)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(draws):
        counts[len(random_baseline("abcd", 1, rng).words[0])] += 1
    expected = draws / 3
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    critical = 9.210  # chi-square, 2 degrees of freedom, significance 0.01
    assert chi2 < critical, counts
    print(f"\nACCEPTANCE 5 (exact boundary counts; chi2={chi2:.2f} < {critical}): PASS")


# --- criterion 6: full-corpus results (conditional) ----------------------------

def test_criterion_6_whole_corpus_scores(full_corpus):
    cfg = LearnerConfig(order=1, phoneme_mode=PhonemeMode.LEXICON)
    started = time.perf_counter()
    block = whole_corpus_scores(full_corpus, cfg)
    elapsed = time.perf_counter() - started
    assert abs(block.precision - 67.7) <= 2.0
    assert abs(block.recall - 70.18) <= 2.0
    assert abs(block.lexicon_precision - 52.85) <= 2.0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6a (1-gram lexicon-mode corpus scores "
          f"P={block.precision:.2f} R={block.recall:.2f} "
          f"L={block.lexicon_precision:.2f} in {elapsed:.1f}s): PASS")


def test_criterion_6_fully_trained_trigram_errors(full_corpus):
    tables = CountTables()
    cfg = LearnerConfig(order=3)
    for utterance in full_corpus:
        train_utterance(tables, utterance.words, cfg)
    wrong = []
    for index, utterance in enumerate(full_corpus, start=1):
        seg = process_utterance(tables, utterance.raw, cfg)
        if seg.words != utterance.words:
            wrong.append(index)
    assert wrong == [3482, 5572, 5836, 7602]
    print("\nACCEPTANCE 6b (fully trained 3-gram errs on 3482/5572/5836/7602): PASS")


def test_criterion_6_fully_trained_bigram_errors(full_corpus):
    cfg = LearnerConfig(order=2)
    tables = CountTables()
    for utterance in full_corpus:
        train_utterance(tables, utterance.words, cfg)
    wrong = []
    for index, utterance in enumerate(full_corpus, start=1):
        seg = process_utterance(tables, utterance.raw, cfg)
        if seg.words != utterance.words:
            wrong.append(index)
    assert wrong == [614, 3937, 5572, 7327, 7602, 7681, 7849, 7853]
    print("\nACCEPTANCE 6c (fully trained 2-gram errs on the eight utterances): PASS")


def test_criterion_6_lexicon_growth_coefficient(full_corpus, tmp_path):
    from segdisc import save_corpus
    path = tmp_path / "corpus.txt"
    save_corpus(full_corpus, path)
    _, actual = run_lexicon_growth(ExperimentSpec(
        command="lexicon-growth", corpus_path=str(path), runs=1, no_permute=True))
    assert 6.0 <= actual.k <= 8.0
    print(f"\nACCEPTANCE 6d (reference lexicon growth k={actual.k:.2f} in [6, 8]): PASS")


# --- criterion 7: vowel constraint (conditional) --------------------------------

def test_criterion_7_vowel_constraint_gain(full_corpus):
    unconstrained = whole_corpus_scores(full_corpus, LearnerConfig(order=1))
    constrained = whole_corpus_scores(
        full_corpus, LearnerConfig(order=1, require_vowel=True))
    gain = constrained.precision - unconstrained.precision
    assert gain >= 10.0
    print(f"\nACCEPTANCE 7 (vowel constraint precision gain {gain:.1f} >= 10): PASS")


# --- criterion 8: fixture round trip --------------------------------------------

def test_criterion_8_fixture_round_trip(sample_path):
    started = time.perf_counter()
    corpus = load_corpus(sample_path)
    cfg = LearnerConfig(order=1)
    tables = CountTables()
    for utterance in corpus:
        train_utterance(tables, utterance.words, cfg)
    wrong = []
    for index, utterance in enumerate(corpus, start=1):
        seg = process_utterance(tables, utterance.raw, cfg)
        if seg.words != utterance.words:
            wrong.append(index)
    elapsed = time.perf_counter() - started
    assert wrong == []
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 8 (doubled fixture, 1-gram, zero errors): PASS in {elapsed:.3f}s")
