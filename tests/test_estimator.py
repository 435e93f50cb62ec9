import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import sub
from pathlib import Path

import pytest

from segdisc import (SENTINEL, CountTables, LearnerConfig, PhonemeMode, UnknownPhoneme,
                     default_inventory, p_bigram, p_sigma, p_trigram, p_unigram,
                     process_utterance, segment, word_score)
from segdisc import estimator, segmenter
from segdisc.estimator import UtteranceScorer

F = Fraction
EVENTS = 51  # 50 phonemes plus the sentinel


def neglog(p):
    """-ln of an exact probability, finite however small p is."""
    return math.log(p.denominator) - math.log(p.numerator)


def damn_british_tables(isolated=7):
    t = CountTables()
    t.commit(["D&mbrItIS"])
    t.commit(["D&m"])
    t.commit(["D&m"])
    for _ in range(isolated):
        t.commit(["brItIS"])
    return t


# --- spelling model ---------------------------------------------------------

def test_sigma_uniform_single_phoneme():
    t = CountTables()
    # oracle: uniform pseudo-counts, f = 1/51 per event
    expected = (F(1, EVENTS) / (1 - F(1, EVENTS))) * F(1, EVENTS)
    assert expected == F(1, 2550)
    assert p_sigma(t, "a") == expected


def test_sigma_uniform_two_phonemes():
    t = CountTables()
    expected = (F(1, EVENTS) / (1 - F(1, EVENTS))) * F(1, EVENTS) ** 2
    assert expected == F(1, 130050)
    assert p_sigma(t, "tu") == expected


def test_sigma_partial_sums_geometric():
    # enumerate every word of length 1..2: the mass must follow the
    # geometric identity 1 - (1 - f(sentinel))^L exactly, on fresh tables
    # and on tables whose learned phoneme counts are no longer uniform
    # (acceptance criterion 3 takes fresh tables to length 3)
    learned = CountTables()
    learned.commit(["tu", "lUk"])
    learned.commit(["tu", "mi", "tu"], PhonemeMode.SPEECH)
    assert len(set(learned.phonemes.values())) > 2
    for t in (CountTables(), learned):
        symbols = t.inventory.symbols
        f_sent = F(t.phonemes[SENTINEL], t.phoneme_total)
        total = 0
        for length in (1, 2):
            total += sum(p_sigma(t, "".join(word))
                         for word in itertools.product(symbols, repeat=length))
            assert total == 1 - (1 - f_sent) ** length


def test_sigma_exact_sums_to_one_at_length_one():
    t = CountTables()
    mass = sum(p_sigma(t, ch) for ch in t.inventory.symbols)
    assert mass == 1 - (1 - F(1, EVENTS)) ** 1


def test_sigma_reflects_learned_phonemes():
    t = CountTables()
    t.commit(["tu"])
    # counts: t=2, u=2, sentinel=2, total 54
    assert p_sigma(t, "t") == F(2, 54 - 2) * F(2, 54)


# --- unigram ----------------------------------------------------------------

def test_unigram_familiar_damn_british_values():
    t = damn_british_tables()
    assert neglog(p_unigram(t, "D&m")) == pytest.approx(1.8718, abs=1e-4)
    assert neglog(p_unigram(t, "brItIS")) == pytest.approx(0.619039, abs=1e-4)
    assert neglog(p_unigram(t, "D&mbrItIS")) == pytest.approx(2.56495, abs=1e-4)


def test_unigram_empty_tables_is_sigma():
    t = CountTables()
    assert p_unigram(t, "lUk") == p_sigma(t, "lUk")
    assert p_unigram(t, "a") == p_sigma(t, "a")


def test_unigram_novel_gets_escape_mass():
    t = damn_british_tables()
    assert p_unigram(t, "lUk") == F(3, 13) * p_sigma(t, "lUk")


def test_unigram_escape_identity_exact():
    rng = random.Random(5)
    pool = ["a", "b", "ab", "tu", "mi", "lUk", "ba"]
    for _ in range(50):
        t = CountTables()
        for _ in range(rng.randint(1, 30)):
            t.commit(rng.choices(pool, k=rng.randint(1, 4)))
        familiar_mass = sum(p_unigram(t, w) for w in t.unigrams)
        escape_mass = F(len(t.unigrams), len(t.unigrams) + t.s1)
        assert familiar_mass + escape_mass == 1


def test_unigram_monotone_in_count():
    t = damn_british_tables()
    before = p_unigram(t, "D&m")
    t.commit(["D&m"])
    assert p_unigram(t, "D&m") > before


# --- bigram -----------------------------------------------------------------

def test_bigram_familiar_pair():
    t = CountTables()
    t.commit(["a", "b"])
    # N2=1, S2=1, C(a,b)=1, C(a)=1
    assert p_bigram(t, "a", "b") == F(1, 2)


def test_bigram_unseen_pair_backs_off():
    t = CountTables()
    t.commit(["a", "b"])
    assert p_bigram(t, "b", "a") == F(1, 2) * p_unigram(t, "a")


def test_bigram_empty_tables_is_unigram():
    t = CountTables()
    t.commit(["a"])  # unigram counts exist, no bigrams at all
    assert p_bigram(t, "a", "a") == p_unigram(t, "a")


def test_bigram_divides_by_conditioning_word_count():
    t = CountTables()
    t.commit(["a", "b"])
    t.commit(["a"])  # C(a)=2 now, pair count still 1
    assert p_bigram(t, "a", "b") == F(1, 2) * F(1, 2)


# --- trigram ----------------------------------------------------------------

def test_trigram_familiar_triple():
    t = CountTables()
    t.commit(["a", "b", "i"])
    # N3=S3=1, C(a,b,i)=1, C(a,b)=1
    assert p_trigram(t, "a", "b", "i") == F(1, 2)


def test_trigram_empty_table_backs_off_to_bigram():
    t = CountTables()
    t.commit(["a", "b"])
    assert p_trigram(t, "b", "a", "b") == p_bigram(t, "a", "b")


def test_trigram_unseen_triple_gets_escape():
    t = CountTables()
    t.commit(["a", "b", "i"])
    assert p_trigram(t, "i", "b", "a") == F(1, 2) * p_bigram(t, "b", "a")


# --- scoring ----------------------------------------------------------------

def test_word_score_matches_probabilities():
    t = damn_british_tables()
    assert word_score(t, (), "brItIS", 1) == pytest.approx(0.619039, abs=1e-4)
    assert word_score(t, (), "D&m", 1) == pytest.approx(1.8718, abs=1e-4)


def test_word_score_empty_tables_order3_is_sigma():
    t = CountTables()
    for word in ("a", "tu", "lUk"):
        assert word_score(t, ("x", "y"), word, 3) == pytest.approx(
            neglog(p_sigma(t, word)), rel=1e-12)


def test_word_score_utterance_initial_falls_back():
    t = CountTables()
    t.commit(["a", "b"])
    assert word_score(t, (), "a", 2) == word_score(t, (), "a", 1)
    assert word_score(t, (), "a", 3) == word_score(t, (), "a", 1)
    assert word_score(t, ("a",), "b", 3) == word_score(t, ("a",), "b", 2)


def test_word_score_follows_commits():
    # word_score reads the tables' one chain; every commit must refresh it
    t = CountTables()
    for words in (["ab"], ["ab", "a"], ["a", "b", "ab"], ["ab", "a", "b"]):
        word_score(t, ("ab", "a"), "b", 3)
        t.commit(words)
        assert word_score(t, (), "b", 1) == pytest.approx(
            neglog(p_unigram(t, "b")), rel=1e-12)
        assert word_score(t, ("a",), "b", 2) == pytest.approx(
            neglog(p_bigram(t, "a", "b")), rel=1e-12)
        assert word_score(t, ("ab", "a"), "b", 3) == pytest.approx(
            neglog(p_trigram(t, "ab", "a", "b")), rel=1e-12)


def test_word_score_matches_exact_model_for_long_novel_word():
    # a float product would be 0.0 here; the exact chain and the log chain
    # must still agree
    t = CountTables()
    t.commit(["D&m", "brItIS"])
    word = "".join(random.Random(200).choices(default_inventory().symbols, k=200))
    p = p_unigram(t, word)
    assert float(p) == 0.0
    assert neglog(p) == pytest.approx(word_score(t, (), word, 1), rel=1e-12)


def test_word_score_rejects_bad_order():
    t = CountTables()
    with pytest.raises(ValueError):
        word_score(t, (), "a", 4)


@pytest.mark.parametrize("order", [1.0, 2.0, 3.0, True])
def test_word_score_rejects_orders_that_are_not_ints(order):
    t = CountTables()
    t.commit(["ab", "ba"])
    with pytest.raises(ValueError, match="order must be"):
        word_score(t, ("ab",), "ba", order)


def test_word_score_rejects_empty_word():
    # the spelling model normalizes over non-empty strings: "" has no mass
    t = CountTables()
    for order in (1, 2, 3):
        with pytest.raises(ValueError, match="empty word"):
            word_score(t, (), "", order)
    t.commit(["ab", "a"])
    with pytest.raises(ValueError, match="empty word"):
        word_score(t, ("ab", "a"), "", 3)


@pytest.mark.parametrize("word,symbol,position", [
    ("abé", "é", 2), ("a" + SENTINEL, SENTINEL, 1), (SENTINEL, SENTINEL, 0)])
def test_word_score_rejects_symbols_outside_inventory(word, symbol, position):
    t = CountTables()
    t.commit(["ab", "a"])
    for order in (1, 2, 3):
        with pytest.raises(UnknownPhoneme) as info:
            word_score(t, ("ab", "a"), word, order)
        assert (info.value.char, info.value.position) == (symbol, position)
        assert f"{symbol!r} at position {position}" in str(info.value)


def test_word_score_finite_for_random_states():
    rng = random.Random(31)
    symbols = default_inventory().symbols
    pool = ["a", "b", "ab", "tu", "mi"]
    for _ in range(100):
        t = CountTables()
        for _ in range(rng.randint(0, 8)):
            t.commit(rng.choices(pool, k=rng.randint(1, 4)),
                     rng.choice(list(PhonemeMode)))
        word = "".join(rng.choices(symbols, k=rng.randint(1, 40)))
        context = tuple(rng.choices(pool, k=rng.randint(0, 2)))
        for order in (1, 2, 3):
            score = word_score(t, context, word, order)
            assert math.isfinite(score) and score > 0


def test_word_score_long_novel_word_does_not_underflow():
    t = CountTables()
    word = "a" * 500  # product-space probability would be 0.0 in a float
    score = word_score(t, (), word, 1)
    assert math.isfinite(score)
    # -ln p_sigma = ln 50 + 500 ln 51 under uniform pseudo-counts
    assert score == pytest.approx(math.log(50) + 500 * math.log(51), rel=1e-12)


# --- the scorer's spelling pass ---------------------------------------------

def spelled_alone(tables, word):
    """-ln p_unigram of `word` from its own counts, one phoneme at a time."""
    denom = len(tables.unigrams) + tables.s1
    count = tables.unigrams.get(word, 0)
    if count > 0:
        return -math.log(count / denom)
    counts = tables.phonemes
    total = tables.phoneme_total
    sentinel = counts[SENTINEL]
    value = -math.log(sentinel / (total - sentinel))
    for ch in word:
        value -= math.log(counts[ch] / total)
    if denom > 0:
        value -= math.log(len(tables.unigrams) / denom)
    return value


def read(scorer, j, i):
    """u[j:i]'s running spelling, read and stored as the searches read it:
    one phoneme on where start j's spelling ends at i - 1, caught up
    across the columns between elsewhere."""
    logs, spelled, upto = scorer.logs, scorer.spelled, scorer.upto
    if upto[j] == i - 1:
        cost = spelled[j] - logs[i - 1]
    else:
        cost = reduce(sub, logs[upto[j]:i], spelled[j])
    spelled[j] = cost
    upto[j] = i
    return cost


def check_spelling(tables, scorer, u, score, j, i):
    """A spelling score of u[j:i] from `scorer`, less the unigram escape
    term, equals by float.hex word_score's and the word spelled on its own
    wherever u[j:i] is outside the lexicon."""
    word = u[j:i]
    if word not in tables.unigrams:
        got = (score - scorer.escapes[0]).hex()
        assert got == word_score(tables, (), word, 1).hex(), (u, j, i)
        assert got == spelled_alone(tables, word).hex(), (u, j, i)


def assert_spellings_are_bit_identical(tables, u, scorer):
    """Every spelling score a search can read from `scorer` is word_score's
    (check_spelling): each start's running spelling of u[t:upto[t]],
    spelled[t] == h where nothing was read, and spell(t, i) for every
    t < i, which continues a running spelling that ends at or before i
    and spells u[t:i] from scratch where it ends past i.  Returns the
    number of pairs each way."""
    n = len(u)
    assert len(scorer.spelled) == len(scorer.upto) == n + 1, u
    for t, (value, last) in enumerate(zip(scorer.spelled, scorer.upto)):
        assert t <= last <= n, (u, t, last)
        if last == t:
            assert value.hex() == scorer.head.hex(), (u, t)
        else:
            check_spelling(tables, scorer, u, value, t, last)
    ways = [0, 0]
    for i in range(1, n + 1):
        for t in range(i):
            check_spelling(tables, scorer, u, scorer.spell(t, i), t, i)
            ways[scorer.upto[t] > i] += 1
    return ways


def assert_pass_is_bit_identical(tables, u):
    """The scorer's spelling scores are bit-identical to word_score's
    however they are reached.  Each column reads a random half of its
    starts, right to left, as the searches do, so a start's reads are one
    phoneme on after a read one column back and catch-ups across a gap of
    columns after a skip; every read is checked, and then every spelling
    the running state and spell() give (assert_spellings_are_bit_identical),
    from scratch or continued.  wholes() holds the n + 1 spellings of u[:i],
    each bit for bit spell(0, i) from scratch.  starts[i] maps exactly the j
    whose u[j:i] is a lexicon word, in increasing order, to that word."""
    scorer = UtteranceScorer(tables, u)
    fresh = UtteranceScorer(tables, u)
    wholes = scorer.wholes()
    assert len(wholes) == len(u) + 1, u
    assert wholes[0].hex() == scorer.head.hex(), u
    rng = random.Random(u)
    kinds = [0, 0]
    for i in range(1, len(u) + 1):
        assert wholes[i].hex() == fresh.spell(0, i).hex(), (u, i)
        for j in range(i - 1, 0, -1):
            if rng.random() < 0.5:
                kinds[scorer.upto[j] != i - 1] += 1
                check_spelling(tables, scorer, u, read(scorer, j, i), j, i)
        lexical = [(j, u[j:i]) for j in range(i) if u[j:i] in tables.unigrams]
        assert list(scorer.starts[i].items()) == lexical, (u, i)
    assert scorer.starts[0] == {}
    if len(u) >= 8:
        assert min(kinds) > 0, (u, kinds)
    ways = assert_spellings_are_bit_identical(tables, u, scorer)
    if len(u) >= 8:
        assert min(ways) > 0, (u, ways)


@pytest.mark.parametrize("mode", list(PhonemeMode))
def test_spelling_pass_random_states(mode):
    rng = random.Random(f"spelling-{mode.value}")
    pool = ["a", "b", "ab", "ba", "aab", "bI", "tIb", "Ita", "kEt"]
    for _ in range(60):
        t = CountTables()
        for _ in range(rng.randint(0, 12)):
            t.commit(rng.choices(pool, k=rng.randint(1, 5)), mode)
        u = "".join(rng.choices("abItkE", k=rng.randint(1, 24)))
        assert_pass_is_bit_identical(t, u)


def test_spelling_pass_empty_tables():
    # nothing observed: no escape term, the spelling model alone
    t = CountTables()
    assert_pass_is_bit_identical(t, "D&mbrItIS")
    assert UtteranceScorer(t, "D&mbrItIS").starts == [{}] * 10


@pytest.mark.parametrize("u", ["D&mbrItISkIti", "kItiD&mbrItIS", "D&mbrItIS", "brItIS",
                               "D&mD&mbrItI", "S", "IS"])
def test_spelling_pass_words_as_long_as_the_longest(u):
    # "D&mbrItIS" is the longest lexicon word: at the start of u, at its
    # end, spanning all of u, cut by one phoneme, and in utterances shorter
    # than it, where a walk stopped one prefix early or late drops or adds
    # a cell
    t = damn_british_tables()
    t.commit(["kIti", "I", "S"])
    assert max(t.unigrams, key=len) == "D&mbrItIS"
    assert_pass_is_bit_identical(t, u)


@pytest.mark.parametrize("lexicon, u", [
    (["D&mbrItIS", "k"], "kID&mbrItISk"),
    (["ab", "abab", "b"], "abababa"),
    (["kItiS", "Iti"], "bkIti"),
    (["S", "kIt"], "kItS"),
], ids=["no-proper-prefix-is-a-word", "word-is-a-prefix-of-a-word",
        "u-ends-inside-a-prefix", "one-phoneme-word-at-the-end"])
def test_spelling_pass_prefix_walk_edges(lexicon, u):
    # the walk from each start must pass prefixes that are not words, keep
    # going after a word that begins a longer one, stop at the end of u,
    # and read a word that starts at the last phoneme
    t = CountTables()
    t.commit(lexicon)
    assert_pass_is_bit_identical(t, u)


def test_spelling_pass_long_novel_utterance():
    rng = random.Random(200)
    symbols = default_inventory().symbols
    t = CountTables()
    for _ in range(30):
        t.commit(["".join(rng.choices(symbols, k=rng.randint(1, 5)))], PhonemeMode.SPEECH)
    u = "".join(rng.choices(symbols, k=200))
    # nearly every substring is novel: no lexicon word of 3+ phonemes occurs
    assert not any(w in u for w in t.unigrams if len(w) > 2)
    assert_pass_is_bit_identical(t, u)


def test_spelling_pass_repeated_substrings():
    t = CountTables()
    t.commit(["ab", "ba", "ab"])
    t.commit(["abab"], PhonemeMode.SPEECH)
    assert_pass_is_bit_identical(t, "ab" * 20)
    assert_pass_is_bit_identical(t, "aabaabbab" * 3)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_searches_leave_bit_identical_running_spellings(order, monkeypatch):
    # the searches read and store the running spellings themselves, one
    # phoneme on or caught up past the columns where a start was skipped (a
    # lexicon start, one past the stop, one outside the vowel rule's bound);
    # whatever they leave, and whatever spell() gives the walk after them,
    # must be word_score's bits
    scorers = []

    class Kept(UtteranceScorer):
        __slots__ = ()

        def __init__(self, tables, u):
            super().__init__(tables, u)
            scorers.append(self)

    monkeypatch.setattr(segmenter, "UtteranceScorer", Kept)
    rng = random.Random(f"running-{order}")
    pool = ["a", "b", "ab", "ba", "aab", "bI", "tIb", "Ita", "kEt"]
    for _ in range(40):
        mode = rng.choice(list(PhonemeMode))
        t = CountTables()
        for _ in range(rng.randint(0, 12)):
            t.commit(rng.choices(pool, k=rng.randint(1, 5)), mode)
        u = "".join(rng.choices("abItkE", k=rng.randint(1, 40)))
        segment(t, u, LearnerConfig(order, mode, rng.random() < 0.3))
        assert_spellings_are_bit_identical(t, u, scorers[-1])


# --- one chain per table ---------------------------------------------------

def cache_free_answer(accepted, mode, query):
    """The query's answer from fresh tables that replay only the accepted
    commits and are asked nothing else."""
    t = CountTables()
    for words in accepted:
        t.commit(words, mode)
    return query(t)


@pytest.mark.parametrize("mode", list(PhonemeMode))
def test_cache_history_never_changes_a_score(mode):
    # segment and word_score share one chain per table state: whatever was
    # asked of it before, and whichever commits were rejected, every answer
    # must equal the one a table with no history gives
    rng = random.Random(f"cache-history-{mode.value}")
    pool = ["a", "b", "ab", "ba", "aab", "bI", "tIb", "Ita", "kEt"]
    symbols = "abItkE"
    t = CountTables()
    accepted = []
    for _ in range(250):
        if rng.random() < 0.4:
            words = rng.choices(pool, k=rng.randint(1, 4))
            fault = rng.random()
            if fault < 0.15:
                words.insert(rng.randint(0, len(words)), rng.choice(["aé", "b" + SENTINEL]))
                with pytest.raises(UnknownPhoneme):
                    t.commit(words, mode)
            elif fault < 0.25:
                words.insert(rng.randint(0, len(words)), "")
                with pytest.raises(ValueError, match="empty word"):
                    t.commit(words, mode)
            else:
                t.commit(words, mode)
                accepted.append(words)
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.45:
                u = "".join(rng.choices(symbols, k=rng.randint(1, 14)))
                cfg = LearnerConfig(rng.randint(1, 3), mode, rng.random() < 0.3)

                def query(tables):
                    seg, score = segment(tables, u, cfg)
                    return seg.words, score.hex()
            elif kind < 0.9:
                context = tuple(rng.choice([rng.choice(pool), "".join(rng.choices(symbols, k=3))])
                                for _ in range(rng.randint(0, 2)))
                word = rng.choice([rng.choice(pool),
                                   "".join(rng.choices(symbols, k=rng.randint(1, 8)))])
                order = rng.randint(1, 3)

                def query(tables):
                    return word_score(tables, context, word, order).hex()
            else:
                # a rejected query must leave the chain as it was
                with pytest.raises(UnknownPhoneme):
                    word_score(t, ("ab",), "a" + SENTINEL, rng.randint(1, 3))
                with pytest.raises(UnknownPhoneme):
                    segment(t, "ab" + SENTINEL, LearnerConfig(rng.randint(1, 3), mode))
                continue
            assert query(t) == cache_free_answer(accepted, mode, query)


@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_learn_loop_builds_one_chain_per_tables(order, mode, monkeypatch):
    # a commit refreshes the tables' chain in place on its next read: the
    # closures are built once per tables, not once per accepted commit, and
    # refreshed once per commit, not once per read
    builds, refreshes = [], []
    build = estimator._log_chain

    def counted(tables):
        chain = build(tables)
        refresh = chain[6]

        def counted_refresh(tables):
            refreshes.append(tables.s1)
            return refresh(tables)

        chain[6] = counted_refresh
        builds.append(tables)
        return chain

    monkeypatch.setattr(estimator, "_log_chain", counted)
    lines = (Path(__file__).parent / "fixtures" / "synthetic308.txt").read_text().splitlines()
    t = CountTables()
    commits = []
    for line in lines[:300]:
        seg = process_utterance(t, line.replace(" ", ""), LearnerConfig(order, mode))
        commits.append(t.s1)
        # the first read after the commit, and a second that must not refresh
        word_score(t, seg.words[:-1], seg.words[-1], order)
        word_score(t, (), seg.words[0], order)
    assert builds == [t]
    assert refreshes == commits
