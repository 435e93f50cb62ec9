import math
import random

import pytest

from segdisc import (SENTINEL, CountTables, LearnerConfig, PhonemeMode, Segmentation,
                     UnknownPhoneme, is_vowel_bearing, process_utterance, segment,
                     train_utterance, word_score)


def all_segmentations(u):
    """Every way to split u, as word lists, via boundary bitmasks."""
    n = len(u)
    for mask in range(1 << (n - 1)):
        bounds = [i + 1 for i in range(n - 1) if mask >> i & 1]
        edges = [0] + bounds + [n]
        yield [u[a:b] for a, b in zip(edges, edges[1:])]


def exhaustive_minimum(tables, u, cfg):
    """Independent reference: score every segmentation, keep the smallest."""
    best = math.inf
    for words in all_segmentations(u):
        if cfg.require_vowel and any(not is_vowel_bearing(w) for w in words):
            continue
        total = 0.0
        context = []
        for w in words:
            total += word_score(tables, tuple(context), w, cfg.order)
            context.append(w)
        if total < best:
            best = total
    return best


def random_tables(rng):
    pool = ["a", "b", "ab", "ba", "aab", "bb", "aba"]
    t = CountTables()
    for _ in range(rng.randint(0, 10)):
        t.commit(rng.choices(pool, k=rng.randint(1, 5)),
                 rng.choice(list(PhonemeMode)))
    return t


# --- Segmentation value type -------------------------------------------------

def test_segmentation_from_words():
    seg = Segmentation.from_words(["D&m", "brItIS"])
    assert seg.phonemes == "D&mbrItIS"
    assert seg.boundaries == (3,)
    assert seg.words == ("D&m", "brItIS")


def test_segmentation_from_boundaries():
    seg = Segmentation.from_boundaries("abcd", (1, 3))
    assert seg.words == ("a", "bc", "d")


def test_segmentation_rejects_bad_input():
    with pytest.raises(ValueError):
        Segmentation.from_words([])
    with pytest.raises(ValueError):
        Segmentation.from_words(["a", ""])
    with pytest.raises(ValueError):
        Segmentation.from_boundaries("abc", (3,))
    with pytest.raises(ValueError):
        Segmentation.from_boundaries("abc", (2, 1))
    with pytest.raises(ValueError):
        Segmentation.from_boundaries("", ())


def test_learner_config_validates_order():
    with pytest.raises(ValueError):
        LearnerConfig(order=4)


@pytest.mark.parametrize("order", [1.0, 2.0, 3.0, True])
def test_learner_config_rejects_orders_that_are_not_ints(order):
    with pytest.raises(ValueError, match="order must be"):
        LearnerConfig(order=order)


@pytest.mark.parametrize("mode", list(PhonemeMode))
def test_learner_config_takes_a_mode_by_value(mode):
    cfg = LearnerConfig(phoneme_mode=mode.value)
    assert cfg == LearnerConfig(phoneme_mode=mode)
    assert cfg.phoneme_mode is mode
    t = CountTables()
    process_utterance(t, "abab", cfg)
    reference = CountTables()
    reference.commit(["abab"], mode)
    assert t.phonemes == reference.phonemes


def test_learner_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="not a valid PhonemeMode"):
        LearnerConfig(phoneme_mode="bogus")


# --- search ------------------------------------------------------------------

def test_single_phoneme_has_no_boundary():
    t = CountTables()
    seg, score = segment(t, "a", LearnerConfig(order=1))
    assert seg.words == ("a",)
    assert score == word_score(t, (), "a", 1)


def test_first_utterance_commits_whole_word():
    t = CountTables()
    seg = process_utterance(t, "D&mbrItIS", LearnerConfig(order=1))
    assert seg.words == ("D&mbrItIS",)
    assert t.unigrams == {"D&mbrItIS": 1}


def test_damn_british_splits_at_seven():
    cfg = LearnerConfig(order=1)
    t = CountTables()
    for u in ("D&mbrItIS", "D&m", "D&m") + ("brItIS",) * 7:
        process_utterance(t, u, cfg)
    seg, score = segment(t, "D&mbrItIS", cfg)
    assert seg.words == ("D&m", "brItIS")
    assert score == pytest.approx(1.8718 + 0.619039, abs=1e-4)


def test_damn_british_exact_tie_stays_whole():
    # at six isolated sightings both readings score -ln(1/12); the strict
    # comparison keeps the unsplit candidate
    cfg = LearnerConfig(order=1)
    t = CountTables()
    for u in ("D&mbrItIS", "D&m", "D&m") + ("brItIS",) * 6:
        process_utterance(t, u, cfg)
    seg, _ = segment(t, "D&mbrItIS", cfg)
    assert seg.words == ("D&mbrItIS",)


def test_optimality_against_enumeration_all_orders():
    rng = random.Random(1234)
    for trial in range(60):
        t = random_tables(rng)
        n = rng.randint(1, 9)
        u = "".join(rng.choices("ab", k=n))
        for order in (1, 2, 3):
            cfg = LearnerConfig(order=order)
            seg, score = segment(t, u, cfg)
            assert score == exhaustive_minimum(t, u, cfg), (trial, order, u)
            assert "".join(seg.words) == u


def test_score_additivity():
    rng = random.Random(99)
    for _ in range(40):
        t = random_tables(rng)
        u = "".join(rng.choices("ab", k=rng.randint(1, 10)))
        for order in (1, 2, 3):
            cfg = LearnerConfig(order=order)
            seg, score = segment(t, u, cfg)
            total = 0.0
            context = []
            for w in seg.words:
                total += word_score(t, tuple(context), w, order)
                context.append(w)
            assert total == score


def test_determinism():
    rng = random.Random(0)
    t = random_tables(rng)
    cfg = LearnerConfig(order=2)
    first = segment(t, "abab", cfg)
    for _ in range(5):
        assert segment(t, "abab", cfg) == first


def test_segment_does_not_touch_tables():
    t = CountTables()
    t.commit(["ab"])

    def counts():
        return (dict(t.unigrams), dict(t.bigrams), dict(t.trigrams), dict(t.phonemes),
                t.s1, t.s2, t.s3)

    before = counts()
    segment(t, "abab", LearnerConfig(order=3))
    assert counts() == before


def test_empty_utterance_rejected():
    with pytest.raises(ValueError):
        segment(CountTables(), "", LearnerConfig(order=1))


@pytest.mark.parametrize("u,symbol,position", [
    ("abé", "é", 2),                 # outside the alphabet
    ("a" + SENTINEL, SENTINEL, 1),   # the spelling model's end-of-word marker
    ("bd" + SENTINEL, SENTINEL, 2),  # no vowel: would stay one word
])
def test_segment_rejects_symbols_outside_inventory(u, symbol, position):
    trained = CountTables()
    trained.commit(["ab", "a", "bd"])
    for tables in (CountTables(), trained):
        for order in (1, 2, 3):
            for require_vowel in (False, True):
                cfg = LearnerConfig(order=order, require_vowel=require_vowel)
                with pytest.raises(UnknownPhoneme) as info:
                    segment(tables, u, cfg)
                assert (info.value.char, info.value.position) == (symbol, position)
                assert f"{symbol!r} at position {position}" in str(info.value)


def test_bigram_context_bias_splits_fused_word():
    # a frequent bigram pulls a fused word apart when it follows the
    # bigram's first half; the unigram model has no context bias and the
    # trigram model pays an unseen-triple escape that outweighs it
    lines = ["D&ts Ol gUd"] * 8 + ["Olr9t"] * 3 + ["Ol r9t"] * 4 + ["D&ts Olr9t"]
    outcomes = {}
    for order in (1, 2, 3):
        cfg = LearnerConfig(order=order)
        t = CountTables()
        for line in lines:
            train_utterance(t, line.split(), cfg)
        seg, _ = segment(t, "D&tsOlr9t", cfg)
        outcomes[order] = seg.words
    assert outcomes[1] == ("D&ts", "Olr9t")
    assert outcomes[2] == ("D&ts", "Ol", "r9t")
    assert outcomes[3] == ("D&ts", "Olr9t")


def test_memorized_triple_beats_frequent_fused_word():
    # once the exact triple has been observed there is no escape discount
    # left to pay, so the trigram model splits where the unigram model is
    # swayed by the fused word's raw frequency
    lines = ["D&ts Ol r9t"] * 2 + ["Olr9t"] * 10
    outcomes = {}
    for order in (1, 3):
        cfg = LearnerConfig(order=order)
        t = CountTables()
        for line in lines:
            train_utterance(t, line.split(), cfg)
        seg, _ = segment(t, "D&tsOlr9t", cfg)
        outcomes[order] = seg.words
    assert outcomes[1] == ("D&ts", "Olr9t")
    assert outcomes[3] == ("D&ts", "Ol", "r9t")


# --- vowel constraint --------------------------------------------------------

def test_vowel_constraint_blocks_consonant_words():
    cfg = LearnerConfig(order=1, require_vowel=True)
    rng = random.Random(7)
    for _ in range(30):
        t = random_tables(rng)
        u = "".join(rng.choices("abst", k=rng.randint(2, 8)))
        if "a" not in u:
            continue
        seg, _ = segment(t, u, cfg)
        assert all(is_vowel_bearing(w) for w in seg.words)


def test_vowel_constraint_vowelless_utterance_stays_whole():
    cfg = LearnerConfig(order=1, require_vowel=True)
    t = CountTables()
    t.commit(["st"])  # even a familiar vowel-free word must not tempt a split
    seg, score = segment(t, "stst", cfg)
    assert seg.words == ("stst",)
    assert score == word_score(t, (), "stst", 1)


def test_vowel_constraint_matches_constrained_enumeration():
    rng = random.Random(321)
    for _ in range(30):
        t = random_tables(rng)
        u = "".join(rng.choices("ab", k=rng.randint(1, 8)))
        for order in (1, 2, 3):
            cfg = LearnerConfig(order=order, require_vowel=True)
            seg, score = segment(t, u, cfg)
            if "a" in u:
                assert score == exhaustive_minimum(t, u, cfg)
            else:
                assert seg.words == (u,)


# --- learn loop --------------------------------------------------------------

def test_process_utterance_commits():
    cfg = LearnerConfig(order=1)
    t = CountTables()
    process_utterance(t, "tu", cfg)
    assert t.unigrams == {"tu": 1}
    process_utterance(t, "tu", cfg)
    assert t.unigrams == {"tu": 2}


def test_second_pass_scores_familiar():
    cfg = LearnerConfig(order=1)
    t = CountTables()
    process_utterance(t, "tu", cfg)
    # now familiar with count 1: score is -ln(1/(N1+S1)) = -ln(1/2)
    assert word_score(t, (), "tu", 1) == pytest.approx(math.log(2))


def test_train_utterance_commits_reference():
    cfg = LearnerConfig(order=2)
    t = CountTables()
    train_utterance(t, ["D&m", "brItIS"], cfg)
    assert t.bigrams == {("D&m", "brItIS"): 1}
    assert t.unigrams == {"D&m": 1, "brItIS": 1}


def test_fixture_learn_loop_populates_lexicon(sample_corpus):
    cfg = LearnerConfig(order=1)
    t = CountTables()
    for utterance in sample_corpus:
        process_utterance(t, utterance.raw, cfg)
    assert len(t.unigrams) >= 1
    assert t.s1 >= len(sample_corpus)  # at least one word inferred per utterance


# Exact ties: the winning and the rival reading add the same float terms
# in another order (x + y == y + x), so only the tie rule separates them.
# It keeps the first candidate reached: at each end position the earliest
# split point, that is the longest last word.
@pytest.mark.parametrize("commits,u,order,expected,rival", [
    ([("ab",), ("ba",)], "aba", 1, ("a", "ba"), ("ab", "a")),
    ([("bb",)], "bbb", 1, ("b", "bb"), ("bb", "b")),
    ([("bb",)], "bbb", 2, ("b", "bb"), ("bb", "b")),
    ([("bb",)], "bbbbbbb", 2, ("b", "bb", "bb", "bb"), ("bb", "bb", "b", "bb")),
    ([("bb",)], "bbb", 3, ("b", "bb"), ("bb", "b")),
    ([("bb",)], "bbbbbbb", 3, ("b", "bb", "bb", "bb"), ("bb", "b", "bb", "bb")),
    ([("a", "ab", "b"), ("ba",)], "bbababb", 3,
     ("b", "b", "ab", "ab", "b"), ("b", "ba", "b", "ab", "b")),
])
def test_exact_ties_follow_the_tie_rule(commits, u, order, expected, rival):
    t = CountTables()
    for words in commits:
        t.commit(words)
    seg, score = segment(t, u, LearnerConfig(order=order))
    assert seg.words == expected
    tied = 0.0
    for i, w in enumerate(rival):
        tied += word_score(t, rival[:i], w, order)
    assert tied == score
