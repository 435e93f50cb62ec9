"""Word probabilities with escape-mass back-off.

At each n-gram order k the mass N_k/(N_k+S_k) is reserved for events never
seen at that order (N_k distinct events seen, the size of that order's
table, S_k their total count); an unseen event receives that escape mass
times the estimate one order down.  The chain ends in a phoneme spelling
model that gives positive probability to every possible word, so every
query is answerable.

The probability functions p_* return plain floats by default; passing
exact=True switches the arithmetic to fractions.Fraction for identity
checks.  Each picks its division once per call, so both kinds of number
go through the same operations in the same order.  Scoring works in
negative natural log units through one chain per table state, `_log_chain`,
built on first use after a commit and kept in `tables.score_cache`; both
`word_score` and the boundary search's `UtteranceScorer` read it.  It
accumulates per phoneme, so long novel words cannot underflow.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .phoneme import SENTINEL
from .tables import CountTables


def p_sigma(tables: CountTables, word: str, exact: bool = False):
    """Spelling model: f(sentinel) * prod_j f(word[j]) / (1 - f(sentinel)).

    The sentinel factor closes each word and the division by the mass left
    over for non-sentinel symbols normalizes the distribution over all
    non-empty phoneme strings, so the total over every possible word is
    exactly one.
    """
    ratio = Fraction if exact else operator.truediv
    counts = tables.phonemes
    total = tables.phoneme_total
    sentinel = counts[SENTINEL]
    p = ratio(sentinel, total - sentinel)
    for ch in word:
        p *= ratio(counts[ch], total)
    return p


def p_unigram(tables: CountTables, word: str, exact: bool = False):
    """C(w)/(N1+S1) for a familiar word, else the escape mass times p_sigma.

    With nothing observed yet (N1 = S1 = 0) there is no escape discount
    and the spelling model is used directly.
    """
    ratio = Fraction if exact else operator.truediv
    count = tables.unigrams.get(word, 0)
    denom = len(tables.unigrams) + tables.s1
    if count > 0:
        return ratio(count, denom)
    base = p_sigma(tables, word, exact)
    return base if denom == 0 else ratio(len(tables.unigrams), denom) * base


def p_bigram(tables: CountTables, prev: str, word: str, exact: bool = False):
    """(S2/(N2+S2)) * C(prev,w)/C(prev) for a seen pair, else back off.

    The familiar branch is the pair's relative frequency given the
    conditioning word's unigram count, scaled by the non-escape mass; an
    unseen pair falls back to N2/(N2+S2) times the unigram estimate.
    """
    ratio = Fraction if exact else operator.truediv
    count = tables.bigrams.get((prev, word), 0)
    denom = len(tables.bigrams) + tables.s2
    if count > 0:
        return ratio(tables.s2, denom) * ratio(count, tables.unigrams[prev])
    base = p_unigram(tables, word, exact)
    return base if denom == 0 else ratio(len(tables.bigrams), denom) * base


def p_trigram(tables: CountTables, prev2: str, prev1: str, word: str,
              exact: bool = False):
    """(S3/(N3+S3)) * C(prev2,prev1,w)/C(prev2,prev1) if seen, else back off."""
    ratio = Fraction if exact else operator.truediv
    count = tables.trigrams.get((prev2, prev1, word), 0)
    denom = len(tables.trigrams) + tables.s3
    if count > 0:
        return ratio(tables.s3, denom) * ratio(count, tables.bigrams[(prev2, prev1)])
    base = p_bigram(tables, prev1, word, exact)
    return base if denom == 0 else ratio(len(tables.trigrams), denom) * base


def _log_chain(tables: CountTables):
    """The back-off chain in negative natural log units.

    Returns (uni, bi, tri, substrings, escapes).  uni(w), bi(prev, w) and
    tri(prev2, prev1, w) are -ln of p_unigram, p_bigram and p_trigram,
    accumulated per phoneme so that long novel words cannot underflow.
    The table aggregates are read once, so the chain holds for one table
    state only; `_chain` builds it on first use after a commit.  A phoneme's
    log is computed on first use: substrings(u) fills the symbols of u, and
    uni those of a word it spells, which the caller must have checked
    against the inventory; context words are only looked up, never spelled.
    Unigram scores are memoized per word.

    escapes = (e2, e3) are the logs of the bigram and trigram escape masses,
    0.0 while an order has seen nothing.  "" is never committed, so for
    every w, bi("", w) == uni(w) - e2 and tri("", "", w) == bi("", w) - e3.

    A novel word's spelling score grows by one phoneme term per phoneme, so
    substrings(u) extends each score ending at i - 1 by u[i - 1]: uni's
    subtractions in the same order, so the scores are bit-identical.  It
    returns costs[i][j] = uni(u[j:i]), 0 <= j < i <= n = len(u), built one
    end position i at a time in O(n^2) subtractions, and starts[i], mapping
    each j whose u[j:i] is a lexicon word to it in increasing j.  The walk
    from each start looks up only substrings in the tables' `prefixes`.
    """
    log = math.log
    counts = tables.phonemes
    total = tables.phoneme_total
    sentinel = counts[SENTINEL]
    sigma_head = -log(sentinel / (total - sentinel))
    char_logs: dict[str, float] = {}

    def fill(text: str) -> None:
        for ch in set(text).difference(char_logs):
            char_logs[ch] = log(counts[ch] / total)

    unigram_counts = tables.unigrams
    prefixes = tables.prefixes
    denom1 = len(unigram_counts) + tables.s1
    # with nothing observed there is no escape term, and x - 0.0 == x
    log_escape1 = log(len(unigram_counts) / denom1) if denom1 > 0 else 0.0
    uni_cache: dict[str, float] = {}

    def uni(word: str) -> float:
        value = uni_cache.get(word)
        if value is None:
            count = unigram_counts.get(word, 0)
            if count > 0:
                value = -log(count / denom1)
            else:
                fill(word)
                value = sigma_head
                for ch in word:
                    value -= char_logs[ch]
                value -= log_escape1
            uni_cache[word] = value
        return value

    def substrings(u: str) -> tuple[list[list[float]], list[dict[int, str]]]:
        fill(u)
        n = len(u)
        starts = [{} for _ in range(n + 1)]
        for j in range(n):
            i = j + 1
            while i <= n and (word := u[j:i]) in prefixes:
                if word in unigram_counts:
                    starts[i][j] = word
                i += 1
        # acc[j] is u[j:i]'s spelling score before the escape term
        acc = []
        costs = [[]]
        for i, ch in enumerate(u, 1):
            log_i = char_logs[ch]
            acc = [value - log_i for value in acc]
            acc.append(sigma_head - log_i)
            col = [value - log_escape1 for value in acc]
            for j, word in starts[i].items():
                col[j] = uni(word)
            costs.append(col)
        return costs, starts

    bigram_counts = tables.bigrams
    denom2 = len(bigram_counts) + tables.s2
    bi_head = -log(tables.s2 / denom2) if tables.s2 > 0 else None
    log_escape2 = log(len(bigram_counts) / denom2) if denom2 > 0 else 0.0

    def bi(prev: str, word: str) -> float:
        count = bigram_counts.get((prev, word), 0)
        if count > 0:
            return bi_head - log(count / unigram_counts[prev])
        return uni(word) - log_escape2

    trigram_counts = tables.trigrams
    denom3 = len(trigram_counts) + tables.s3
    tri_head = -log(tables.s3 / denom3) if tables.s3 > 0 else None
    log_escape3 = log(len(trigram_counts) / denom3) if denom3 > 0 else 0.0

    def tri(prev2: str, prev1: str, word: str) -> float:
        count = trigram_counts.get((prev2, prev1, word), 0)
        if count > 0:
            return tri_head - log(count / bigram_counts[(prev2, prev1)])
        return bi(prev1, word) - log_escape3

    return uni, bi, tri, substrings, (log_escape2, log_escape3)


def _chain(tables: CountTables):
    """The tables' back-off chain, built on first use after a commit; commit
    clears `tables.score_cache`, so every reader sees the current counts."""
    chain = tables.score_cache
    if chain is None:
        chain = tables.score_cache = _log_chain(tables)
    return chain


def check_order(order) -> None:
    """Raise ValueError unless `order` is the int 1, 2 or 3."""
    if type(order) is not int or order not in (1, 2, 3):
        raise ValueError(f"order must be the int 1, 2 or 3, got {order!r}")


def word_score(tables: CountTables, context, word: str, order: int) -> float:
    """Negative natural log of the word's probability under the model order.

    `context` holds the words preceding `word` in the same utterance; only
    the last order-1 are used.  At the start of an utterance fewer may be
    available and the estimate falls to the matching lower order: the first
    word is scored as a unigram, the second word of a trigram model as a
    bigram.  The result is always finite.  The empty word is rejected,
    since the spelling model gives it no mass, and so is a word that holds
    a symbol outside the inventory, the end-of-word sentinel included
    (UnknownPhoneme).  The score comes from the tables' one chain, which
    the boundary search reads too.
    """
    check_order(order)
    if not word:
        raise ValueError("cannot score an empty word")
    tables.inventory.check(word)
    have = min(order - 1, len(context))
    return _chain(tables)[have](*context[len(context) - have:], word)


class UtteranceScorer:
    """One utterance's view of the tables' shared back-off chain.

    `costs` and `starts` are the chain's substrings(u): costs[i][j] is
    uni(u[j:i]), built one end position at a time in O(n^2) float
    subtractions, and starts[i] maps each start of a lexicon word ending at i
    to that word, found by lookups along lexicon prefixes only.  The search
    reads them and scores lexicon words with the chain's bi, tri and
    `escapes`, the same chain word_score reads, so every score is
    bit-identical to the equivalent word_score call.  The scorer builds no
    chain of its own, and the tables must not change while it lives.
    """

    __slots__ = ("costs", "starts", "escapes", "uni", "bi", "tri")

    def __init__(self, tables: CountTables, u: str):
        self.uni, self.bi, self.tri, substrings, self.escapes = _chain(tables)
        self.costs, self.starts = substrings(u)
