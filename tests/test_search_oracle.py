"""The production searches against the dense oracle.

`dense_search` keeps dense searches that visit every cell, score every word
through the chain and store a back-pointer per cell.  The production
searches must return the same words and the same score bits on every input:
same words means the same tie rule, rounding near-ties included, and same
bits means the same sums.
"""

import random
from pathlib import Path

import pytest

import dense_search
from segdisc import (CountTables, LearnerConfig, PhonemeMode, Segmentation,
                     default_inventory, is_vowel_bearing, segment, word_score)
from segdisc.estimator import UtteranceScorer

STREAM = Path(__file__).parent / "fixtures" / "synthetic308.txt"
POOL = ["a", "b", "ab", "ba", "aab", "bb", "aba", "I", "bI", "tIb", "Ita"]
SYMBOLS = "abIt"


def dense_segment(tables, u, cfg):
    """`segment` with the dense searches in place of the production ones.

    The vowel rule is applied here as its own test on each word, through
    `allowed`, so the production search's start bound is checked against
    an independent rule; an utterance without a vowel is one word, as in
    `segment`.
    """
    allowed = None
    if cfg.require_vowel:
        if not is_vowel_bearing(u):
            return Segmentation.from_words((u,)), word_score(tables, (), u, cfg.order)

        def allowed(start, end):
            return is_vowel_bearing(u[start:end])

    scorer = UtteranceScorer(tables, u)
    if cfg.order == 1:
        words, score = dense_search._search_unigram(scorer, u, allowed)
    elif cfg.order == 2:
        words, score = dense_search._search_bigram(scorer, u, allowed)
    else:
        words, score = dense_search._search_trigram(scorer, u, allowed, tables.bigrams)
    return Segmentation.from_words(words), score


def assert_same_as_oracle(tables, u, cfg):
    seg, score = segment(tables, u, cfg)
    ref, ref_score = dense_segment(tables, u, cfg)
    assert (seg.words, score.hex()) == (ref.words, ref_score.hex()), (u, cfg)
    return seg


@pytest.mark.parametrize("require_vowel", [False, True])
@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_incremental_stream_matches_dense_search(order, mode, require_vowel):
    """The learner's stream over tests/fixtures/synthetic308.txt, in the
    cases of tests/test_stream_golden.py, compared with the oracle on the
    same tables at every utterance before its commit.  Every utterance runs
    at every order, the two 64-phoneme ones included (under a second in
    all at order 3).  This stores no digest, so it holds on any platform:
    if a golden stream digest fails while this passes, the platform's
    math.log differs in a last bit, and the search is not at fault."""
    cfg = LearnerConfig(order=order, phoneme_mode=mode, require_vowel=require_vowel)
    tables = CountTables()
    for line in STREAM.read_text().splitlines():
        seg = assert_same_as_oracle(tables, line.replace(" ", ""), cfg)
        tables.commit(seg.words, cfg.phoneme_mode)


def random_tables(rng, mode):
    t = CountTables()
    for _ in range(rng.randint(0, 10)):
        t.commit(rng.choices(POOL, k=rng.randint(1, 5)), mode)
    return t


@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("order", [2, 3])
def test_random_states_match_dense_search(order, mode):
    rng = random.Random(f"{order}-{mode.value}")
    for _ in range(300):
        t = random_tables(rng, mode)
        u = "".join(rng.choices(SYMBOLS, k=rng.randint(1, 14)))
        for require_vowel in (False, True):
            cfg = LearnerConfig(order=order, phoneme_mode=mode,
                                require_vowel=require_vowel)
            assert_same_as_oracle(t, u, cfg)


# The rescan tests each lexicon start on its own and scans the other starts
# only when their stored least value can reach the cell's score.  These
# states make that choice matter: one word is frequent on its own, so a seen
# bigram after it can score worse than a back-off, and a word outside the
# lexicon then wins over a lexicon word; short utterances over few symbols
# give exact ties between the two kinds of start.
RESCAN_POOL = ["a", "b", "t", "I", "ab", "ba", "It", "tI", "bb", "aba", "tIb", "Ita", "bIt"]


def rescan_tables(rng, mode):
    t = CountTables()
    frequent = [rng.choice(RESCAN_POOL[:4])]
    for _ in range(rng.randint(0, 12)):
        t.commit(frequent, mode)
    for _ in range(rng.randint(0, 4)):
        t.commit(rng.choices(RESCAN_POOL + frequent * 4, k=rng.randint(2, 4)), mode)
    return t


@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("order", [2, 3])
def test_rescan_over_random_states_matches_dense_search(order, mode):
    rng = random.Random(f"rescan-{order}-{mode.value}")
    for _ in range(1000):
        t = rescan_tables(rng, mode)
        u = "".join(rng.choices(SYMBOLS, k=rng.randint(1, 8)))
        for require_vowel in (False, True):
            cfg = LearnerConfig(order=order, phoneme_mode=mode,
                                require_vowel=require_vowel)
            assert_same_as_oracle(t, u, cfg)


def test_seen_bigram_starts_do_not_bound_the_other_starts():
    # The winner is "t", "at", "t".  At its last pair the best reading of
    # "tat" ends in the lexicon word "t", but "t", "t" is a seen bigram, so
    # that start adds its own tri term, not the shared one; the winner's
    # word before, "at", is outside the lexicon.  A bound taken over every
    # start, lexicon starts included, lies below the score and would skip
    # the scan that finds "at".
    mode = PhonemeMode.UNIFORM
    t = CountTables()
    for _ in range(9):
        t.commit(["t"], mode)
    for words in (["t", "t"], ["t", "b"], ["It", "t", "It"]):
        t.commit(words, mode)
    cfg = LearnerConfig(order=3, phoneme_mode=mode)
    seg = assert_same_as_oracle(t, "tatt", cfg)
    assert seg.words == ("t", "at", "t")
    assert segment(t, "tatt", cfg)[1].hex() == "0x1.075bd6e7bc910p+4"


@pytest.mark.parametrize("order", [2, 3])
def test_long_utterances_over_a_dense_lexicon_match_dense_search(order):
    # after these commits nearly every substring of up to three phonemes
    # is a lexicon word, so nearly every history is scored on its own
    rng = random.Random(order)
    t = CountTables()
    for _ in range(40):
        t.commit(rng.choices(POOL, k=rng.randint(1, 6)))
    for n in (30, 45, 60):
        u = "".join(rng.choices("ab", k=n))
        for require_vowel in (False, True):
            assert_same_as_oracle(t, u, LearnerConfig(order=order,
                                                      require_vowel=require_vowel))


@pytest.mark.parametrize("order", [2, 3])
def test_long_utterances_over_a_sparse_lexicon_match_dense_search(order):
    # a small lexicon over the full alphabet: nearly every substring is
    # outside the lexicon, so nearly every cell scores its word alike after
    # every history, while the lexicon words still form seen n-grams
    alphabet = default_inventory().symbols
    rng = random.Random(10 + order)
    lexicon = ["".join(rng.choices(alphabet, k=rng.randint(1, 3))) for _ in range(12)]
    for mode in (PhonemeMode.LEXICON, PhonemeMode.SPEECH):
        t = CountTables()
        for _ in range(30):
            t.commit(rng.choices(lexicon, k=rng.randint(1, 5)), mode)
        for n in (40, 50, 60):
            chunks = []
            while sum(map(len, chunks)) < n:
                chunks.append(rng.choice(lexicon) if rng.random() < 0.4 else
                              "".join(rng.choices(alphabet, k=rng.randint(1, 3))))
            u = "".join(chunks)[:n]
            for require_vowel in (False, True):
                assert_same_as_oracle(t, u, LearnerConfig(order=order, phoneme_mode=mode,
                                                          require_vowel=require_vowel))


# The vowel rule's edges: the only vowel at the first phoneme, at the last
# or mid-utterance, no vowel at all, and consonant runs longer than the
# longest lexicon word (three phonemes).  The lexicon has words without a
# vowel, in seen bigrams and trigrams, so histories the rule excludes are
# lexicon words too.
VOWEL_EDGES = ["a", "b", "abtbtbt", "btbtbta", "btbabtb", "btbtbt", "abtbtbtbtbtba",
               "bIbtbtbtbtbtbtab", "tbtbtbtIbtbtbtb", "a" + "bt" * 20 + "I" + "tb" * 20 + "a"]


@pytest.mark.parametrize("u", VOWEL_EDGES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_vowel_rule_edges_match_dense_search(order, u):
    for mode in PhonemeMode:
        t = CountTables()
        for words in [("ab", "bt"), ("b", "ab"), ("bt", "b", "ab"), ("bIb", "t"),
                      ("tb", "a"), ("a", "b", "t"), ("bt", "b", "ab")]:
            t.commit(words, mode)
        seg = assert_same_as_oracle(t, u, LearnerConfig(order=order, phoneme_mode=mode,
                                                        require_vowel=True))
        assert all(is_vowel_bearing(w) for w in seg.words) or seg.words == (u,)


@pytest.mark.parametrize("order", [2, 3])
def test_shared_state_is_scored_without_the_first_word(order):
    # The first word "aaa" is a lexicon word that forms a seen bigram with
    # "t", and the reading "a aa", whose last word is outside the lexicon,
    # beats "aaa" read alone: "a" is frequent, SPEECH counts make "aa" cheap
    # to spell, and 15 one-phoneme types raise the escape into spelling.
    # Scoring "t" after the shared state of "a aa" as if after "aaa" would
    # undercut every real reading.
    mode = PhonemeMode.SPEECH
    t = CountTables()
    for _ in range(200):
        t.commit(["a"], mode)
    for w in "pmdnkgNfvTDszSZ":
        t.commit([w], mode)
    t.commit(["aaa", "t"], mode)
    assert "aa" not in t.unigrams and ("aaa", "t") in t.bigrams
    assert reading_score(t, ("a", "aa"), order) < reading_score(t, ("aaa",), order)
    assert_same_as_oracle(t, "aaat", LearnerConfig(order=order, phoneme_mode=mode))


def reading_score(tables, words, order, end=None):
    """Score of a reading, or of its words up to phoneme position `end`."""
    total = 0.0
    position = 0
    for i, w in enumerate(words):
        if position == end:
            break
        total += word_score(tables, words[:i], w, order)
        position += len(w)
    return total


# Rounding near-ties: the two readings agree from phoneme `end` on, their
# prefixes up to `end` differ in the last bits, and adding the next word's
# score rounds both sums to the same float.  The dense search keeps the
# first candidate reached, the one with the earlier split point; taking the
# smaller prefix, or scoring the shared state of histories outside the
# lexicon before the lexicon histories, would pick the rival.
@pytest.mark.parametrize("commits,mode,u,order,end,expected,rival", [
    ([("a", "ab", "bb", "ab", "a"), ("a", "bb")], PhonemeMode.SPEECH,
     "bbba", 2, 3, ("b", "bb", "a"), ("bb", "b", "a")),
    ([("ab", "aab", "b"), ("b",), ("b", "a", "ab", "ba"),
      ("aba", "a", "ba", "aba"), ("ab", "b", "ba")], PhonemeMode.UNIFORM,
     "bababab", 3, 5, ("b", "ab", "ab", "ab"), ("ba", "b", "ab", "ab")),
])
def test_rounding_near_ties_keep_the_dense_choice(commits, mode, u, order, end,
                                                  expected, rival):
    t = CountTables()
    for words in commits:
        t.commit(words, mode)
    prefix = reading_score(t, expected, order, end)
    rival_prefix = reading_score(t, rival, order, end)
    assert prefix != rival_prefix
    assert abs(prefix - rival_prefix) < 1e-14
    cfg = LearnerConfig(order=order, phoneme_mode=mode)
    seg, score = segment(t, u, cfg)
    assert reading_score(t, expected, order) == reading_score(t, rival, order) == score
    assert dense_segment(t, u, cfg)[0].words == expected
    assert seg.words == expected
