import random
import tracemalloc

import pytest

from segdisc import (SENTINEL, CountTables, LearnerConfig, PhonemeMode,
                     UnknownPhoneme, default_inventory, train_utterance)
from segdisc.estimator import UtteranceScorer

EVENT_SPACE = 51  # 50 phonemes plus the sentinel


def aggregates(t):
    """(N1, N2, N3, S1, S2, S3): distinct keys and count sums per order."""
    return (len(t.unigrams), len(t.bigrams), len(t.trigrams), t.s1, t.s2, t.s3)


def test_uniform_initialization():
    t = CountTables()
    assert aggregates(t) == (0, 0, 0, 0, 0, 0)
    assert len(t.phonemes) == EVENT_SPACE
    assert t.phoneme_total == EVENT_SPACE
    assert t.phonemes[SENTINEL] / t.phoneme_total == 1 / EVENT_SPACE
    freqs = {t.phonemes[p] / t.phoneme_total for p in t.phonemes}
    assert freqs == {1 / EVENT_SPACE}


def test_commit_counts_two_words():
    t = CountTables()
    t.commit(["D&m", "brItIS"])
    assert aggregates(t) == (2, 1, 0, 2, 1, 0)
    assert t.bigrams == {("D&m", "brItIS"): 1}
    assert t.trigrams == {}


def test_commit_counts_triples():
    t = CountTables()
    t.commit(["a", "b", "i", "u"])
    assert aggregates(t) == (4, 3, 2, 4, 3, 2)
    assert t.trigrams == {("a", "b", "i"): 1, ("b", "i", "u"): 1}


def test_ngrams_do_not_span_utterances():
    t = CountTables()
    t.commit(["a", "b"])
    t.commit(["b", "a"])
    assert ("b", "b") not in t.bigrams  # would only exist across the boundary
    assert t.bigrams == {("a", "b"): 1, ("b", "a"): 1}


def test_lexicon_mode_counts_phonemes_once():
    t = CountTables()
    t.commit(["tu"], PhonemeMode.LEXICON)
    t.commit(["tu"], PhonemeMode.LEXICON)
    assert t.phonemes["t"] == 2
    assert t.phonemes["u"] == 2
    assert t.phonemes[SENTINEL] == 2
    assert t.phoneme_total == EVENT_SPACE + 3


def test_speech_mode_counts_every_token():
    t = CountTables()
    t.commit(["tu"], PhonemeMode.SPEECH)
    t.commit(["tu"], PhonemeMode.SPEECH)
    assert t.phonemes["t"] == 3
    assert t.phonemes["u"] == 3
    assert t.phonemes[SENTINEL] == 3
    assert t.phoneme_total == EVENT_SPACE + 6


def test_uniform_mode_never_updates():
    t = CountTables()
    t.commit(["tu", "mi"], PhonemeMode.UNIFORM)
    assert t.phoneme_total == EVENT_SPACE
    assert t.phonemes["t"] == 1


def test_repeated_word_within_utterance_lexicon_mode():
    t = CountTables()
    t.commit(["tu", "tu"], PhonemeMode.LEXICON)
    # second token is already familiar by the time it is seen
    assert t.phonemes["t"] == 2
    assert len(t.unigrams) == 1 and t.s1 == 2


def test_damn_british_state_stats():
    t = CountTables()
    t.commit(["D&mbrItIS"])
    for _ in range(2):
        t.commit(["D&m"])
    for _ in range(7):
        t.commit(["brItIS"])
    n1, n2, n3, s1, s2, s3 = aggregates(t)
    assert (n1, s1) == (3, 10)
    assert n2 == s2 == n3 == s3 == 0


def test_commit_rejects_empty():
    t = CountTables()
    with pytest.raises(ValueError):
        t.commit([])
    # "" must stay outside the lexicon: the search scores a history outside
    # the lexicon as the history ""
    with pytest.raises(ValueError, match="empty word"):
        t.commit(["", "ab"])
    with pytest.raises(ValueError, match="empty word"):
        train_utterance(t, ["", "a"], LearnerConfig(order=2))
    assert aggregates(t) == (0, 0, 0, 0, 0, 0) and t.unigrams == {}


def flatten(trie):
    """(paths, words): the set of the trie's paths, and each word held under
    SENTINEL by its path.  It walks an explicit stack, as recursion over a
    trie as deep as a long word would hit the recursion limit."""
    paths, words, stack = set(), {}, [("", trie)]
    while stack:
        path, node = stack.pop()
        for key, child in node.items():
            if key == SENTINEL:
                words[path] = child
            else:
                paths.add(path + key)
                stack.append((path + key, child))
    return paths, words


def snapshot(t):
    return (dict(t.unigrams), dict(t.bigrams), dict(t.trigrams),
            dict(t.phonemes), t.phoneme_total, aggregates(t), flatten(t.trie))


@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("words", [["ab", "é"], ["é"], ["a", "b", "a" + SENTINEL]])
def test_commit_rejects_unknown_symbols_without_counting(mode, words):
    t = CountTables()
    t.commit(["ab", "a", "b"], mode)
    before = snapshot(t)
    with pytest.raises(UnknownPhoneme):
        t.commit(words, mode)
    with pytest.raises(UnknownPhoneme):
        train_utterance(t, words, LearnerConfig(order=3, phoneme_mode=mode))
    with pytest.raises(ValueError, match="not a valid PhonemeMode"):
        t.commit(["ab", "a"], "bogus")
    assert snapshot(t) == before


@pytest.mark.parametrize("mode", list(PhonemeMode))
def test_commit_takes_a_mode_by_value(sample_corpus, mode):
    by_member, by_value = CountTables(), CountTables()
    for utterance in sample_corpus:
        by_member.commit(utterance.words, mode)
        by_value.commit(utterance.words, mode.value)
    assert snapshot(by_value) == snapshot(by_member)


def lexicon_prefixes(t):
    return {w[:k] for w in t.unigrams for k in range(1, len(w) + 1)}


def assert_trie_is_the_lexicon(t):
    # the trie's paths are every prefix of every lexicon word, and each
    # lexicon word is held under SENTINEL at its own path, and nothing else
    paths, words = flatten(t.trie)
    assert paths == lexicon_prefixes(t)
    assert words == {w: w for w in t.unigrams}


def test_prefixes_are_every_prefix_of_every_lexicon_word(sample_corpus):
    t = CountTables()
    assert t.trie == {}
    t.commit(["ab", "a"])
    assert flatten(t.trie) == ({"a", "ab"}, {"a": "a", "ab": "ab"})
    t.commit(["b", "abab", "ba"], PhonemeMode.SPEECH)
    assert flatten(t.trie)[0] == {"a", "ab", "aba", "abab", "b", "ba"}
    assert_trie_is_the_lexicon(t)
    t.commit(["ab", "b"])
    assert_trie_is_the_lexicon(t)
    before = flatten(t.trie)
    assert before[0] == {"a", "ab", "aba", "abab", "b", "ba"}
    for words in (["ab", "é"], ["ababab", "é"]):
        with pytest.raises(UnknownPhoneme):
            t.commit(words)
        assert flatten(t.trie) == before
    rng = random.Random(6)
    for _ in range(50):
        t.commit(["".join(rng.choices("abI", k=rng.randint(1, 12)))
                  for _ in range(rng.randint(1, 4))])
        assert_trie_is_the_lexicon(t)
    trained = CountTables()
    for utterance in sample_corpus:
        train_utterance(trained, utterance.words, LearnerConfig(order=2))
        assert_trie_is_the_lexicon(trained)


def test_commit_is_linear_in_word_length():
    # one novel word of L phonemes adds L trie nodes, ~184 bytes each on
    # CPython 3.11, where a set of its L prefixes took ~2.6 KB per phoneme
    # here and grew as L^2.  The scorer finds the word whole at its end
    length = 5000
    w = "".join(random.Random(length).choices(default_inventory().symbols, k=length))
    t = CountTables()
    tracemalloc.start()
    try:
        t.commit([w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * length, peak / length
    paths, words = flatten(t.trie)
    assert len(paths) == length and words == {w: w}
    assert UtteranceScorer(t, w).starts[length] == {0: w}


def test_reference_corpus_commit_totals(sample_corpus):
    t = CountTables()
    for utterance in sample_corpus:
        t.commit(utterance.words)
    assert t.s1 == sum(len(u.words) for u in sample_corpus)
    assert len(t.unigrams) == len(sample_corpus.lexicon())
    assert t.s2 == sum(max(len(u.words) - 1, 0) for u in sample_corpus)


def test_lexicon_mode_phoneme_total_identity():
    rng = random.Random(11)
    symbols = default_inventory().symbols
    t = CountTables()
    for _ in range(40):
        words = ["".join(rng.choices(symbols, k=rng.randint(1, 5)))
                 for _ in range(rng.randint(1, 4))]
        t.commit(words, PhonemeMode.LEXICON)
    expected = EVENT_SPACE + sum(len(w) + 1 for w in t.unigrams)
    assert t.phoneme_total == expected


def _recount(t):
    return sum(t.unigrams.values()), sum(t.bigrams.values()), sum(t.trigrams.values())


def test_cached_aggregates_match_recount():
    rng = random.Random(7)
    pool = ["a", "b", "ab", "ba", "tu", "mi", "lUk"]
    t = CountTables()
    for _ in range(200):
        words = rng.choices(pool, k=rng.randint(1, 6))
        t.commit(words, rng.choice(list(PhonemeMode)))
        assert t.phoneme_total == sum(t.phonemes.values())
    n1, n2, n3, s1, s2, s3 = aggregates(t)
    assert (s1, s2, s3) == _recount(t)
    assert s1 >= n1 and s2 >= n2 and s3 >= n3


def test_commit_order_independent_for_unigrams_and_phonemes():
    utterances = [["tu", "mi"], ["lUk"], ["tu"], ["mi", "mi", "tu"]]
    forward = CountTables()
    for words in utterances:
        forward.commit(words, PhonemeMode.SPEECH)
    backward = CountTables()
    for words in reversed(utterances):
        backward.commit(words, PhonemeMode.SPEECH)
    assert forward.unigrams == backward.unigrams
    assert forward.phonemes == backward.phonemes
    assert forward.bigrams == backward.bigrams
    assert forward.trigrams == backward.trigrams
