import itertools
import math
import random
from fractions import Fraction

import pytest

from segdisc import (SENTINEL, CountTables, LearnerConfig, PhonemeMode, UnknownPhoneme,
                     default_inventory, p_bigram, p_sigma, p_trigram, p_unigram,
                     segment, word_score)
from segdisc.estimator import UtteranceScorer

F = Fraction
EVENTS = 51  # 50 phonemes plus the sentinel


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
    assert p_sigma(t, "a") == pytest.approx(float(expected), rel=1e-12)
    assert p_sigma(t, "a", exact=True) == expected


def test_sigma_uniform_two_phonemes():
    t = CountTables()
    expected = (F(1, EVENTS) / (1 - F(1, EVENTS))) * F(1, EVENTS) ** 2
    assert expected == F(1, 130050)
    assert p_sigma(t, "tu") == pytest.approx(float(expected), rel=1e-12)
    assert p_sigma(t, "tu", exact=True) == expected


def test_sigma_partial_sums_geometric():
    # enumerate every word of length 1..3: the mass must follow the
    # geometric identity 1 - (1 - f(sentinel))^L
    t = CountTables()
    symbols = t.inventory.symbols
    f_sent = F(1, EVENTS)
    total = 0.0
    for length in (1, 2, 3):
        total += math.fsum(
            p_sigma(t, "".join(word))
            for word in itertools.product(symbols, repeat=length))
        expected = 1 - (1 - f_sent) ** length
        assert total == pytest.approx(float(expected), abs=1e-9)


def test_sigma_exact_sums_to_one_at_length_one():
    t = CountTables()
    mass = sum(p_sigma(t, ch, exact=True) for ch in t.inventory.symbols)
    assert mass == 1 - (1 - F(1, EVENTS)) ** 1


def test_sigma_reflects_learned_phonemes():
    t = CountTables()
    t.commit(["tu"])
    # counts: t=2, u=2, sentinel=2, total 54
    assert p_sigma(t, "t", exact=True) == F(2, 54 - 2) * F(2, 54)


# --- unigram ----------------------------------------------------------------

def test_unigram_familiar_damn_british_values():
    t = damn_british_tables()
    assert -math.log(p_unigram(t, "D&m")) == pytest.approx(1.8718, abs=1e-4)
    assert -math.log(p_unigram(t, "brItIS")) == pytest.approx(0.619039, abs=1e-4)
    assert -math.log(p_unigram(t, "D&mbrItIS")) == pytest.approx(2.56495, abs=1e-4)


def test_unigram_empty_tables_is_sigma():
    t = CountTables()
    assert p_unigram(t, "lUk") == p_sigma(t, "lUk")
    assert p_unigram(t, "a", exact=True) == p_sigma(t, "a", exact=True)


def test_unigram_novel_gets_escape_mass():
    t = damn_british_tables()
    expected = F(3, 13) * p_sigma(t, "lUk", exact=True)
    assert p_unigram(t, "lUk", exact=True) == expected
    assert p_unigram(t, "lUk") == pytest.approx(float(expected), rel=1e-12)


def test_unigram_escape_identity_exact():
    rng = random.Random(5)
    pool = ["a", "b", "ab", "tu", "mi", "lUk", "ba"]
    for _ in range(50):
        t = CountTables()
        for _ in range(rng.randint(1, 30)):
            t.commit(rng.choices(pool, k=rng.randint(1, 4)))
        familiar_mass = sum(p_unigram(t, w, exact=True) for w in t.unigrams)
        escape_mass = F(len(t.unigrams), len(t.unigrams) + t.s1)
        assert familiar_mass + escape_mass == 1


def test_unigram_monotone_in_count():
    t = damn_british_tables()
    before = p_unigram(t, "D&m", exact=True)
    t.commit(["D&m"])
    assert p_unigram(t, "D&m", exact=True) > before


# --- bigram -----------------------------------------------------------------

def test_bigram_familiar_pair():
    t = CountTables()
    t.commit(["a", "b"])
    # N2=1, S2=1, C(a,b)=1, C(a)=1
    assert p_bigram(t, "a", "b", exact=True) == F(1, 2)
    assert p_bigram(t, "a", "b") == pytest.approx(0.5)


def test_bigram_unseen_pair_backs_off():
    t = CountTables()
    t.commit(["a", "b"])
    assert p_bigram(t, "b", "a", exact=True) == F(1, 2) * p_unigram(t, "a", exact=True)


def test_bigram_empty_tables_is_unigram():
    t = CountTables()
    t.commit(["a"])  # unigram counts exist, no bigrams at all
    assert p_bigram(t, "a", "a") == p_unigram(t, "a")


def test_bigram_divides_by_conditioning_word_count():
    t = CountTables()
    t.commit(["a", "b"])
    t.commit(["a"])  # C(a)=2 now, pair count still 1
    assert p_bigram(t, "a", "b", exact=True) == F(1, 2) * F(1, 2)


# --- trigram ----------------------------------------------------------------

def test_trigram_familiar_triple():
    t = CountTables()
    t.commit(["a", "b", "i"])
    # N3=S3=1, C(a,b,i)=1, C(a,b)=1
    assert p_trigram(t, "a", "b", "i", exact=True) == F(1, 2)


def test_trigram_empty_table_backs_off_to_bigram():
    t = CountTables()
    t.commit(["a", "b"])
    assert p_trigram(t, "b", "a", "b") == p_bigram(t, "a", "b")


def test_trigram_unseen_triple_gets_escape():
    t = CountTables()
    t.commit(["a", "b", "i"])
    expected = F(1, 2) * p_bigram(t, "b", "a", exact=True)
    assert p_trigram(t, "i", "b", "a", exact=True) == expected


# --- scoring ----------------------------------------------------------------

def test_word_score_matches_probabilities():
    t = damn_british_tables()
    assert word_score(t, (), "brItIS", 1) == pytest.approx(0.619039, abs=1e-4)
    assert word_score(t, (), "D&m", 1) == pytest.approx(1.8718, abs=1e-4)


def test_word_score_empty_tables_order3_is_sigma():
    t = CountTables()
    for word in ("a", "tu", "lUk"):
        assert word_score(t, ("x", "y"), word, 3) == pytest.approx(
            -math.log(p_sigma(t, word)), rel=1e-12)


def test_word_score_utterance_initial_falls_back():
    t = CountTables()
    t.commit(["a", "b"])
    assert word_score(t, (), "a", 2) == word_score(t, (), "a", 1)
    assert word_score(t, (), "a", 3) == word_score(t, (), "a", 1)
    assert word_score(t, ("a",), "b", 3) == word_score(t, ("a",), "b", 2)


def test_word_score_follows_commits():
    # word_score keeps one chain per table state; every commit must retire it
    t = CountTables()
    for words in (["ab"], ["ab", "a"], ["a", "b", "ab"], ["ab", "a", "b"]):
        word_score(t, ("ab", "a"), "b", 3)
        t.commit(words)
        assert word_score(t, (), "b", 1) == pytest.approx(
            -math.log(p_unigram(t, "b")), rel=1e-12)
        assert word_score(t, ("a",), "b", 2) == pytest.approx(
            -math.log(p_bigram(t, "a", "b")), rel=1e-12)
        assert word_score(t, ("ab", "a"), "b", 3) == pytest.approx(
            -math.log(p_trigram(t, "ab", "a", "b")), rel=1e-12)


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


def assert_pass_is_bit_identical(tables, u):
    """Every cost cell of the scorer, by float.hex, equals word_score's and
    the word spelled on its own, and starts[i] maps exactly the j whose
    u[j:i] is a lexicon word, in increasing order, to that word."""
    scorer = UtteranceScorer(tables, u)
    for i in range(1, len(u) + 1):
        for j in range(i):
            word = u[j:i]
            got = scorer.costs[i][j].hex()
            assert got == word_score(tables, (), word, 1).hex(), (u, j, i)
            assert got == spelled_alone(tables, word).hex(), (u, j, i)
        lexical = [(j, u[j:i]) for j in range(i) if u[j:i] in tables.unigrams]
        assert list(scorer.starts[i].items()) == lexical, (u, i)
    assert scorer.starts[0] == {}


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
    assert max(t.prefixes, key=len) == "D&mbrItIS"
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


# --- one chain per table state ----------------------------------------------

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
