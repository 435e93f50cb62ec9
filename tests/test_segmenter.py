import contextlib
import dataclasses
import gc
import io
import math
import random
import signal
import sys
import tracemalloc
from pathlib import Path

import pytest

from segdisc import (SENTINEL, CountTables, LearnerConfig, PhonemeMode, Segmentation,
                     UnknownPhoneme, default_inventory, is_vowel_bearing, load_corpus,
                     process_utterance, segment, train_utterance, word_score)
from segdisc import segmenter
from segdisc.estimator import UtteranceScorer
from segdisc.segmenter import _search_bigram, _search_trigram, _search_unigram, _walk_back

ROOT = Path(__file__).resolve().parent.parent


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
    assert [len(w) for w in seg.words] == [3, 6]
    assert seg.words == ("D&m", "brItIS")


def test_segmentation_from_boundaries():
    seg = Segmentation.from_boundaries("abcd", (1, 3))
    assert seg.words == ("a", "bc", "d")


def test_segment_reads_the_utterance_as_words():
    # a Segmentation is the utterance and its words; the search hands back
    # the very string it was given
    assert [f.name for f in dataclasses.fields(Segmentation)] == ["phonemes", "words"]
    t = CountTables()
    t.commit(["D&m", "brItIS", "kIti"])
    u = "".join(["kIti", "D&m", "brItIS", "D&m"])
    for order in (1, 2, 3):
        seg, _ = segment(t, u, LearnerConfig(order))
        assert seg.phonemes is u
        assert seg.words == ("kIti", "D&m", "brItIS", "D&m")


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


def test_readme_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library use")) + len("```python\n")
    code = readme[start:readme.index("```", start)]
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    corpus = load_corpus(ROOT / "tests" / "fixtures" / "sample20.txt")
    assert len(lines) == len(corpus) == 20
    for line, utterance in zip(lines, corpus):
        assert line.replace(" ", "") == utterance.raw


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
    # two lexicon starts tie for the cell of "a": order 2's record keeps the
    # first, "bb" read alone
    ([("b", "a"), ("b",), ("bb",)], "bba", 2, ("bb", "a"), ("b", "b", "a")),
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


def test_order3_first_word_alone_bounds_the_scan_only_outside_the_lexicon():
    # "ab" is a lexicon word, and "ab", "d" a seen bigram, but "d" is so
    # frequent that the back-off bi("", "d") scores below that bigram.  The
    # winner is "a", "b", "d", where "b" is outside the lexicon.  At its last
    # word, "ab" read alone plus the back-off term lies below the score:
    # taken into the bound of the other starts although "ab" is a lexicon
    # start, it would skip the scan that finds "b".  The 144 fillers, rich
    # in "b", keep "b" cheap to spell.
    others = [s for s in default_inventory().symbols if s not in "ab"]
    t = CountTables()
    for x in others:
        for filler in ("bb" + x, "b" + x + "b", x + "bb"):
            t.commit([filler])
    for _ in range(200):
        t.commit(["a"])
    for _ in range(400):
        t.commit(["d"])
    t.commit(["ab", "d"])
    t.commit(["ab"])
    t.commit(["ab"])
    assert word_score(t, ("ab",), "d", 2) > word_score(t, ("",), "d", 2)
    cfg = LearnerConfig(order=3)
    seg, score = segment(t, "abd", cfg)
    assert seg.words == ("a", "b", "d")
    assert score == exhaustive_minimum(t, "abd", cfg)
    assert word_score(t, (), "ab", 3) + word_score(t, ("",), "d", 2) < score


def test_order2_seed_covers_a_seen_bigram_dearer_than_its_back_off():
    # "b", "b" is the one seen bigram, and it costs more than its back-off
    # uni("b") - e2: ln 2 + ln 2 against ln(3/2) + ln 2.  Column 1 has no
    # novel reading, so order 2's novel scan keeps its seed there, the
    # lexicon cell "b" plus ln(N2 S1 / S2) = ln 2, and the lexicon word "b"
    # at column 2 after that seed scores above "b" after "b".  A seed without
    # the excess would score "b" after a reading that does not exist, below
    # every real one, and leave the walk no start to reach it
    t = CountTables()
    t.commit(["b", "b"])
    cfg = LearnerConfig(order=2)
    seg, score = segment(t, "bbaa", cfg)
    assert seg.words == ("b", "b", "aa")
    assert score == exhaustive_minimum(t, "bbaa", cfg)
    excess = word_score(t, ("b",), "b", 2) - word_score(t, ("a",), "b", 2)
    assert 0 < excess < math.log(2)


def test_order1_scan_reaches_a_whole_novel_word_that_ties_the_best():
    # In uniform mode every phoneme has frequency 1/51, and "a" is 1 of the
    # 51 unigram types and tokens, so uni("a") is exactly the term that
    # spelling "a" subtracts, and "ab", outside the lexicon, ties "a", "b" in
    # every bit.  Scanning from the right, the whole word's cost equals the
    # best found so far: only a strict cutoff goes on to it and keeps the
    # unsplit reading, as the tie rule asks.
    t = CountTables()
    t.commit(["a"], PhonemeMode.UNIFORM)
    for _ in range(48):
        t.commit(["c"], PhonemeMode.UNIFORM)
    seg, score = segment(t, "ab", LearnerConfig(order=1))
    assert seg.words == ("ab",)
    assert word_score(t, (), "a", 1) + word_score(t, (), "b", 1) == score
    assert exhaustive_minimum(t, "ab", LearnerConfig(order=1)) == score


@pytest.mark.parametrize("order", [1, 2, 3])
def test_novel_scan_passes_a_start_where_a_lexicon_word_ends(order):
    # "b" is a lexicon word seen once, so it scores above its own spelling
    # cost, while the 144 fillers make the phoneme b cheap to spell.  In the
    # last column of "abcd" the best cell so far is "d", after "a", "bc".
    # At the next start, 2, "cd" after the best reading of "ab" lies far
    # above it, as the lexicon word "b" ends there: the best reading of "ab"
    # costs more than "a" plus "b" spelled as a novel word.  A stop that
    # judged the starts left of 2 by that cell would miss the winner, the
    # longer novel word "bcd", and return "a", "bc", "d"; the least key up
    # to start 2 is start 1's, so the key stop goes on to it.
    t = CountTables()
    for x in "pmtnkgNfvTDs":
        for y in "pmtnkgNfvTDs":
            t.commit(["b" + x + y])
    for _ in range(20):
        t.commit(["a"])
    t.commit(["b"])
    cfg = LearnerConfig(order=order)
    seg, score = segment(t, "abcd", cfg)
    assert seg.words == ("a", "bcd")
    assert score == exhaustive_minimum(t, "abcd", cfg)
    rival = sum(word_score(t, ("a", "bc")[:k], w, order) for k, w in enumerate(("a", "bc", "d")))
    assert rival > score


def test_key_stop_keeps_its_rounding_margin():
    # Trial 28 of criterion 2 (tests/test_acceptance.py).  In uniform mode
    # every phoneme costs the same to spell, and the best reading ends in the
    # novel word "baaa" from start 8.  The walk's bound for that last word
    # is, in real arithmetic, exactly the key of start 8: the score less
    # wholes[12] and h - e1 - e2 is the best reading of u[:8] less
    # wholes[8].  Its float lies below that key's float, so a key stop
    # without the margin `grow` ends the walk's scan before start 8, and
    # the walk raises.
    t = CountTables()
    t.commit(["ab", "ab"], PhonemeMode.UNIFORM)
    u = "bababbabbaaa"
    scorer = UtteranceScorer(t, u)
    wholes, (escape1, escape2, _) = scorer.wholes(), scorer.escapes
    for order in (2, 3):
        cfg = LearnerConfig(order)
        seg, score = segment(t, u, cfg)
        assert seg.words == ("b", "ab", "ab", "b", "ab", "baaa")
        assert score == exhaustive_minimum(t, u, cfg)
        prefix = sum(word_score(t, seg.words[:k], w, order) for k, w in enumerate(seg.words[:-1]))
        assert score - wholes[12] - (scorer.head - escape1 - escape2) < prefix - wholes[8]


def test_walk_back_raises_when_no_start_reaches_the_target():
    # a wrong bound leaves the walk with no start that reaches the cell's
    # score; that must fail at once, within a 1 s alarm, instead of looping
    # forever on empty words.  A bound equal to the score sends the walk
    # into its scan of the other starts, which must raise too.
    def expire(*_):
        raise TimeoutError("the walk ran past its 1 s deadline")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for bound in (2.0, 0.5):
            def step(j, i, word, v, target, bound=bound):
                return j, None, 1.0, 0.0, 0.0, bound
            with pytest.raises(RuntimeError, match="ending at 2 reaches 0.5"):
                _walk_back("ab", 0.5, [{}, {}, {}], [math.inf] * 3, [math.inf] * 3, [0] * 3,
                           [0.0] * 3, 0.0, 1.0, step, lambda t, j: 1.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class CountingScorer(UtteranceScorer):
    """Counts a search's spelling subtractions, in `subtractions()`: the
    running spellings', sum(upto[t] - t) over each scorer once its searches
    are done, those of every spell() call and those of the whole-word
    scores; and the search's calls of the chain's uni, bi and tri, in
    `calls`.  reset() starts a count."""

    __slots__ = ()
    calls = spelled_apart = 0
    made = []

    def __init__(self, tables, u):
        super().__init__(tables, u)
        CountingScorer.made.append(self)
        for name in ("uni", "bi", "tri"):
            setattr(self, name, self.counted(getattr(self, name)))

    @staticmethod
    def counted(score):
        def call(*words):
            CountingScorer.calls += 1
            return score(*words)
        return call

    @classmethod
    def reset(cls):
        cls.calls = cls.spelled_apart = 0
        cls.made = []

    @classmethod
    def subtractions(cls):
        running = sum(last - t for s in cls.made for t, last in enumerate(s.upto))
        return running + cls.spelled_apart

    def spell(self, t, i):
        last = self.upto[t]
        CountingScorer.spelled_apart += i - last if last <= i else i - t
        return super().spell(t, i)

    def wholes(self):
        CountingScorer.spelled_apart += len(self.logs)
        return super().wholes()


@pytest.fixture
def counting(monkeypatch):
    """CountingScorer, reset and built by every search."""
    monkeypatch.setattr(segmenter, "UtteranceScorer", CountingScorer)
    CountingScorer.reset()
    return CountingScorer


def trained_on_synthetic308():
    """Tables trained on every line of synthetic308.txt, and the lines."""
    lines = (ROOT / "tests" / "fixtures" / "synthetic308.txt").read_text().splitlines()
    t = CountTables()
    for line in lines:
        train_utterance(t, line.split(), LearnerConfig())
    return t, lines


@pytest.mark.parametrize("order", [1, 2, 3])
def test_novel_scan_reads_few_cells_per_column_on_a_line_of_lexicon_words(order, counting):
    # each column's scan stops where one longer novel word beats every start
    # to its left, so on a line of lexicon words it reads a few cells per
    # column at any length, and the running spellings spell only those: a
    # few subtractions per phoneme, where the whole spelling matrix took
    # n/2.  Pinned: per-column spelling windows took 1,048 / 3,952, 1,445 /
    # 5,599 and 1,473 / 5,753 at orders 1, 2 and 3
    t, lines = trained_on_synthetic308()
    text = "".join(lines).replace(" ", "")
    pinned = {1: (169, 624), 2: (387, 1542), 3: (573, 2240)}[order]
    for n, count in zip((200, 800), pinned):
        counting.reset()
        seg, _ = segment(t, text[:n], LearnerConfig(order))
        assert "".join(seg.words) == text[:n]
        assert counting.subtractions() == count <= 16 * n, (n, counting.subtractions())


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cost_test_stops_the_scan_where_a_lexicon_word_ends_at_every_start(order, counting):
    # on a line of the one-phoneme lexicon word "a" a lexicon word ends at
    # every start, so a stop that asked for a novel reading at its start
    # would never fire; the key stop asks nothing of the start and ends
    # each scan a few cells in, where a scan to the line's start spells
    # ~n/2 cells per phoneme (~150 here)
    t = CountTables()
    for _ in range(20):
        t.commit(["a"])
    seg, _ = segment(t, "a" * 300, LearnerConfig(order))
    assert seg.words == ("a",) * 300
    assert counting.subtractions() <= 16 * 300, counting.subtractions()


@pytest.mark.parametrize("order", [2, 3])
def test_walk_spells_few_cells_from_scratch(order, counting):
    # a line of lexicon words with a random novel word every 146 phonemes:
    # the walk scans the starts of the word before each of those, and must
    # not spell every one whose running spelling has passed the word's end
    # from scratch (a walk without its stop tests took ~1,480 subtractions
    # per phoneme here); it stops where no start further left can reach the
    # score
    t, lines = trained_on_synthetic308()
    text = "".join(lines).replace(" ", "")
    rng = random.Random(146)
    symbols = default_inventory().symbols
    u = "".join(text[k:k + 140] + "".join(rng.choices(symbols, k=6))
                for k in range(0, 1000, 140))[:1000]
    seg, _ = segment(t, u, LearnerConfig(order))
    assert "".join(seg.words) == u
    assert sum(w not in t.unigrams for w in seg.words) >= 5
    assert len(u) <= counting.subtractions() <= 40 * len(u), counting.subtractions()


@pytest.mark.parametrize("order, ceiling", [(2, 1169), (3, 1910)])
def test_lexicon_readings_call_the_chain_at_most_once(order, ceiling, counting):
    # on 1,000 phonemes of lexicon words each lexicon reading costs one
    # lookup and at most one chain call: bi only for a seen bigram, as an
    # unseen one adds uni(word) - e2, and tri only for a seen trigram, as an
    # unseen one adds the back-off term computed once per bigram.  Calling
    # bi for every pair and tri for every split took 1,742 and 2,031 calls,
    # and order 2's ceiling fails when the walk scores every lexicon start of
    # a word on the path again instead of reading its recorded predecessor
    t, lines = trained_on_synthetic308()
    u = "".join(lines).replace(" ", "")[:1000]
    seg, _ = segment(t, u, LearnerConfig(order))
    assert "".join(seg.words) == u
    assert counting.calls <= ceiling, counting.calls


def test_learn_loop_leaves_no_garbage_cycles():
    # a search frees its tables and the walk's helpers on return: a walk
    # tuple holding a helper that reads that same tuple is a reference
    # cycle, which leaves every search's tables to the cyclic collector
    lines = (ROOT / "tests" / "fixtures" / "synthetic308.txt").read_text().splitlines()
    gc.collect()
    gc.disable()
    try:
        for order in (1, 2, 3):
            t = CountTables()
            for line in lines[:300]:
                process_utterance(t, line.replace(" ", ""), LearnerConfig(order))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("search, cells", [(_search_unigram, ()), (_search_bigram, ("walk",)),
                                           (_search_trigram, ("walk",))],
                         ids=["order1", "order2", "order3"])
def test_searches_keep_their_tables_out_of_cell_variables(search, cells):
    # a name that a nested function (or, before Python 3.12, a comprehension)
    # reads is a cell variable of the whole search, and every read of it in
    # the forward loop a slower cell load; only the tuple that the walk's
    # step reads may be one
    assert search.__code__.co_cellvars == cells


def segment_peak(t, u, order):
    """tracemalloc's peak over one segment call, which must keep u whole."""
    tracemalloc.start()
    try:
        seg, _ = segment(t, u, LearnerConfig(order=order))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "".join(seg.words) == u
    return peak


@pytest.mark.parametrize("order", [1, 2, 3])
def test_long_line_memory_per_n_squared(order):
    # on a line of random phonemes a column's novel cells lie within a gap of
    # each other, so the scans read much of every column; the searches store
    # lexicon cells only and one running spelling per start, ~1 byte per n^2
    # here.  Dense per-cell matrices took ~37 and ~54 bytes per n^2 at
    # orders 2 and 3
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=300))
    peak = segment_peak(t, u, order)
    assert peak <= 24 * len(u) ** 2, peak / len(u) ** 2


@pytest.mark.parametrize("order", [1, 2, 3])
def test_random_line_spells_no_more_than_a_spelling_matrix(order, counting):
    # on a line of random phonemes the scans read much of every column; the
    # walk spells from scratch a start whose running spelling has passed
    # the word's end, and must not do so for every start of a word whose
    # score the one-word reading reaches (it took 1.14 n(n+1)/2 at order 3
    # here before the walk tested that start first)
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=300))
    seg, _ = segment(t, u, LearnerConfig(order))
    n = len(u)
    assert "".join(seg.words) == u
    assert counting.subtractions() <= n * (n + 1) // 2 + 4 * n, counting.subtractions()


def test_order2_key_stop_ends_the_scans_on_a_random_line(counting):
    # at order 2 each column reads the one-word reading first, and on a line
    # of random phonemes that reading is the column's best novel cell: the
    # least key lies above the bound it sets, so the scan stops a few starts
    # in.  A scan down to start 1 spells n(n-1)/2 cells, 44,850, plus the n
    # whole-word scores
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=300))
    seg, _ = segment(t, u, LearnerConfig(2))
    assert "".join(seg.words) == u
    assert counting.subtractions() <= 16 * len(u), counting.subtractions()


def test_order3_first_word_alone_seeds_the_scan_on_a_random_line(counting):
    # at order 3 a column's running minimum starts from the prefix read as one
    # word, less e3, where that prefix is outside the lexicon: after a first
    # word read alone the next word pays no trigram escape, so no novel cell
    # above that seed can win.  On a line of random phonemes that reading is
    # the best, and the scans read no novel cell: only the n whole-word
    # scores are spelled
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=300))
    seg, _ = segment(t, u, LearnerConfig(3))
    assert "".join(seg.words) == u
    assert counting.subtractions() == 300 <= 16 * len(u), counting.subtractions()


def test_order2_scan_seeded_above_the_best_lexicon_cell_on_lexicon_lines(counting):
    # nine 100-phoneme slices of synthetic308.txt, lines of lexicon words, on
    # tables trained on it.  Order 2 scores a column's lexicon cells first
    # and starts the novel scan from the best of them plus ln(N2 S1 / S2),
    # the most a seen bigram can cost over its back-off, so it spells at
    # most 150 novel cells per line; a scan seeded with the one-word reading
    # alone exceeds that on every slice
    t, lines = trained_on_synthetic308()
    text = "".join(lines).replace(" ", "")
    novel = []
    for k in range(9):
        u = text[100 * k:100 * (k + 1)]
        counting.reset()
        seg, _ = segment(t, u, LearnerConfig(2))
        assert "".join(seg.words) == u
        novel.append(counting.subtractions() - len(u))  # less the whole-word scores
    assert max(novel) <= 150, novel
    assert sum(novel) == 787, novel


def test_order1_running_spellings_catch_up_on_random_phonemes(counting):
    # on random phonemes a lexicon word that ends by chance can hold its
    # column's minimum and stop the scan at once without lowering the least
    # key, while the next column scans the plateau of novel cells far to
    # the left.  Each start's running spelling catches up across the
    # columns that skipped it, so none is spelled again from scratch: a
    # per-column window trimmed at such a stop took 23,545 subtractions
    # here, and one kept whole 8,019
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=300))
    seg, _ = segment(t, u, LearnerConfig(1))
    n = len(u)
    assert "".join(seg.words) == u
    assert counting.subtractions() == 328 <= n * (n + 1) // 4, counting.subtractions()


@pytest.mark.parametrize("order, pinned", [(1, 0), (2, 2000), (3, 2000)])
def test_line_equal_to_a_lexicon_word_spells_no_novel_cell(order, pinned, counting):
    # a 2,000-phoneme word committed once, then searched alone: at the last
    # column no next word follows, so the word read whole seeds the novel
    # scan at orders 2 and 3, which ends at once.  Order 1 reads it as its
    # lexicon cell, orders 2 and 3 spell only the n whole-word scores.  An
    # unseeded last column ties every novel cell in real arithmetic and read
    # every start, n(n+1)/2 subtractions at order 3
    u = "".join(random.Random(2000).choices(default_inventory().symbols, k=2000))
    t = CountTables()
    t.commit([u])
    seg, _ = segment(t, u, LearnerConfig(order))
    assert seg.words == (u,)
    assert counting.subtractions() == pinned, counting.subtractions()


def random_line(n):
    """n phonemes of the inventory drawn by random.Random(n)."""
    return "".join(random.Random(n).choices(default_inventory().symbols, k=n))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_skip_links_keep_novel_lines_linear(order, counting, mixed_line):
    # on random phonemes most starts a scan meets have an own key above the
    # bar while the least key up to them lies below it, so the key stop
    # cannot end the scan there; each scan jumps over them along the skip
    # links.  Random lines at n = 800 and 2,000 and conftest's mixed line at
    # n = 1,000 and 2,000, pinned exactly, with a ceiling linear in n: a scan
    # that reads such starts one by one makes a quadratic count on the
    # random lines at orders 2 and 3
    t, _ = trained_on_synthetic308()
    pinned = {1: (8621, 19844, 14338, 23391), 2: (8565, 22035, 19248, 31765),
              3: (1226, 3775, 35400, 58371)}[order]
    lines = [(random_line(800), 16), (random_line(2000), 16),
             (mixed_line(1000), 40), (mixed_line(2000), 40)]
    for (u, per_phoneme), count in zip(lines, pinned):
        counting.reset()
        seg, _ = segment(t, u, LearnerConfig(order))
        assert "".join(seg.words) == u
        assert counting.subtractions() == count <= per_phoneme * len(u), \
            (len(u), counting.subtractions())


def segmenter_lines(t, u, order):
    """sys.settrace line events in segmenter.py over one segment call,
    which must keep u whole."""
    lines = 0

    def trace(frame, event, arg):
        if frame.f_code.co_filename != segmenter.__file__:
            return None

        def line(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return line
        return line
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        seg, _ = segment(t, u, LearnerConfig(order))
    finally:
        sys.settrace(previous)
    assert "".join(seg.words) == u
    return lines


@pytest.mark.parametrize("order", [1, 2, 3])
def test_skip_links_jump_past_their_neighbour(order):
    # a skip link left at t - 1 reads the same starts and spells the same
    # subtractions, but steps over the starts a jump skips one at a time:
    # segmenter.py then runs 400-1,900 lines per phoneme on this line
    # (sys.settrace line events, CPython 3.11), against 70-180 with links
    # that point to the nearest start with a smaller own key
    t, _ = trained_on_synthetic308()
    u = random_line(2000)
    lines = segmenter_lines(t, u, order)
    assert lines <= 240 * len(u), lines / len(u)


@pytest.mark.parametrize("order, ceiling", [(1, 50), (2, 50), (3, 54)])
def test_key_stop_ends_a_chain_of_losing_starts(order, ceiling):
    # "SZ" 600 times, SZ committed once: scans meet chains of skip links
    # whose starts all lose, and the key stop ends each where the jumps
    # would follow it down to start 0.  segmenter.py runs 35.5, 35.4 and
    # 42.0 lines per phoneme here (sys.settrace line events, CPython 3.11);
    # with one search's stop deleted, 40.5 at order 1, 888.9 at order 2
    # and 66.1 at order 3.  The ceilings leave 41%, 41% and 29% for line
    # events that differ between CPython versions, so order 1's own stop,
    # worth ~14% on every line tried, and the walk's, worth nothing on
    # them, go uncaught
    t, _ = trained_on_synthetic308()
    train_utterance(t, ["SZ"], LearnerConfig())
    u = "SZ" * 600
    lines = segmenter_lines(t, u, order)
    assert lines <= ceiling * len(u), lines / len(u)


@pytest.mark.parametrize("order, pinned", [(1, 4040), (2, 7542), (3, 7736)])
def test_incremental_stream_spells_a_pinned_count(order, pinned, counting):
    # the learn loop over synthetic308.txt, 3,047 phonemes in corpus-length
    # utterances, where a scan reads nearly every start of a column: each
    # start's spelling advances one subtraction per column it moves on,
    # plus the n whole-word scores at orders 2 and 3.  Per-column spelling
    # windows took 20,701, 25,194 and 26,334
    lines = (ROOT / "tests" / "fixtures" / "synthetic308.txt").read_text().splitlines()
    t = CountTables()
    for line in lines:
        process_utterance(t, line.replace(" ", ""), LearnerConfig(order))
    assert counting.subtractions() == pinned, counting.subtractions()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_long_line_memory_linear_on_lexicon_words(order):
    # on a line of lexicon words memory grows about linearly: 8 times the
    # length takes ~8-9 times the peak (a spelling matrix took 64 times),
    # ~320-640 bytes per phoneme at orders 1-3 (tracemalloc, CPython 3.11)
    t, lines = trained_on_synthetic308()
    text = "".join(lines).replace(" ", "")
    short, long = (segment_peak(t, text[:n], order) for n in (300, 2400))
    assert long <= 16 * short, long / short
    assert long <= 1500 * 2400, long / 2400


@pytest.mark.parametrize("order", [1, 2, 3])
def test_long_line_memory_linear_on_random_phonemes(order):
    # on a line of random phonemes the scans read far into each column, but
    # each start keeps one running spelling, so memory grows about linearly:
    # 4 times the length takes ~4.2 times the peak, ~290-320 bytes per
    # phoneme at order 3 (tracemalloc, CPython 3.11).  Per-column spelling
    # windows took 0.46 and 8.95 MB at order 3 here, ~7,500 bytes per phoneme
    t, _ = trained_on_synthetic308()
    u = "".join(random.Random(300).choices(default_inventory().symbols, k=1200))
    short, long = (segment_peak(t, u[:n], order) for n in (300, 1200))
    assert long <= 6 * short, long / short
    assert long <= 1000 * 1200, long / 1200
