"""Word probabilities with escape-mass back-off.

At each n-gram order k the mass N_k/(N_k+S_k) is reserved for events never
seen at that order (N_k distinct events seen, the size of that order's
table, S_k their total count); an unseen event receives that escape mass
times the estimate one order down.  The chain ends in a phoneme spelling
model that gives positive probability to every possible word, so every
query is answerable.

The probability functions p_* return exact fractions.Fraction values, the
reference for identity checks at any word length.  Scoring works in
negative natural log units through one chain per table, `_log_chain`, the
model's only float arithmetic, built on first use and kept in
`tables.score_cache` for the tables' whole life; the first read after a
commit refreshes its aggregate terms in place, and its phoneme logs only
when a phoneme count moved.  Both `word_score` and the boundary search's
`UtteranceScorer` read it.  It accumulates per phoneme, so long novel
words cannot underflow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import sub

from .phoneme import SENTINEL
from .tables import CountTables


def p_sigma(tables: CountTables, word: str) -> Fraction:
    """Spelling model: f(sentinel) * prod_j f(word[j]) / (1 - f(sentinel)).

    The sentinel factor closes each word and the division by the mass left
    over for non-sentinel symbols normalizes the distribution over all
    non-empty phoneme strings, so the total over every possible word is
    exactly one.
    """
    counts = tables.phonemes
    total = tables.phoneme_total
    sentinel = counts[SENTINEL]
    p = Fraction(sentinel, total - sentinel)
    for ch in word:
        p *= Fraction(counts[ch], total)
    return p


def p_unigram(tables: CountTables, word: str) -> Fraction:
    """C(w)/(N1+S1) for a familiar word, else the escape mass times p_sigma.

    With nothing observed yet (N1 = S1 = 0) there is no escape discount
    and the spelling model is used directly.
    """
    count = tables.unigrams.get(word, 0)
    denom = len(tables.unigrams) + tables.s1
    if count > 0:
        return Fraction(count, denom)
    base = p_sigma(tables, word)
    return base if denom == 0 else Fraction(len(tables.unigrams), denom) * base


def p_bigram(tables: CountTables, prev: str, word: str) -> Fraction:
    """(S2/(N2+S2)) * C(prev,w)/C(prev) for a seen pair, else back off.

    The familiar branch is the pair's relative frequency given the
    conditioning word's unigram count, scaled by the non-escape mass; an
    unseen pair falls back to N2/(N2+S2) times the unigram estimate.
    """
    count = tables.bigrams.get((prev, word), 0)
    denom = len(tables.bigrams) + tables.s2
    if count > 0:
        return Fraction(tables.s2, denom) * Fraction(count, tables.unigrams[prev])
    base = p_unigram(tables, word)
    return base if denom == 0 else Fraction(len(tables.bigrams), denom) * base


def p_trigram(tables: CountTables, prev2: str, prev1: str, word: str) -> Fraction:
    """(S3/(N3+S3)) * C(prev2,prev1,w)/C(prev2,prev1) if seen, else back off."""
    count = tables.trigrams.get((prev2, prev1, word), 0)
    denom = len(tables.trigrams) + tables.s3
    if count > 0:
        return Fraction(tables.s3, denom) * Fraction(count, tables.bigrams[(prev2, prev1)])
    base = p_bigram(tables, prev1, word)
    return base if denom == 0 else Fraction(len(tables.trigrams), denom) * base


def _log_chain(tables: CountTables) -> list:
    """The back-off chain in negative natural log units.

    Returns [uni, bi, tri, substrings, escapes, s1, refresh].  uni(w),
    bi(prev, w) and tri(prev2, prev1, w) are -ln of p_unigram, p_bigram and
    p_trigram, accumulated per phoneme so that long novel words cannot
    underflow.
    The closures are built once per tables and read the table aggregates
    through refresh(tables), which sets them from the current counts and
    returns (escapes, s1): it recomputes N_k + S_k, the escape terms and
    the bigram and trigram heads and clears the unigram memo, and only
    where `phoneme_total` moved, the spelling head and the phoneme logs;
    counts only grow, so an unmoved total means no phoneme count moved.
    The build calls it once, and `_chain` after each commit.  refresh takes
    the tables as an argument and no closure holds them, so the chain they
    keep in `score_cache` makes no reference cycle.  A phoneme's log is
    computed on first use: substrings(u) fills the symbols of u, and uni
    those of a word it spells, which the caller must have checked against
    the inventory; context words are only looked up, never spelled.
    Unigram scores are memoized per word.

    escapes = (e1, e2, e3) are the logs of the unigram, bigram and trigram
    escape masses, 0.0 while an order has seen nothing.  "" is never
    committed, so for every w, bi("", w) == uni(w) - e2 and
    tri("", "", w) == bi("", w) - e3.

    A novel word's spelling score grows by one phoneme term per phoneme:
    u[j:i]'s score before the escape term is the spelling model's head
    term h = -ln(f#/(1 - f#)) less logs[j], ..., logs[i-1] in that order,
    so less the escape term it is bit-identical to uni(u[j:i]) whenever
    u[j:i] is outside the lexicon.  substrings(u) returns (starts, logs,
    h): logs[k] is the log of u[k]'s frequency, and starts[i] maps each j
    whose u[j:i] is a lexicon word to it in increasing j, one shared empty
    dict that no caller may write where there is none.  The walk from each
    start j steps down the tables' `trie`, one dict lookup per phoneme, and
    stops at the first phoneme no lexicon word continues with; a node
    holding a word under SENTINEL gives starts[i][j] that word, the
    lexicon's own string, with no slice and no count lookup.  It loops, and
    recurses over no node.  u must have been checked against the inventory,
    so that no phoneme step reads SENTINEL.  `UtteranceScorer` spells the
    scores from them.
    """
    log = math.log
    counts = tables.phonemes
    # the aggregate terms, set by refresh below
    total = sigma_head = denom1 = log_escape1 = bi_head = log_escape2 = tri_head = \
        log_escape3 = None
    char_logs: dict[str, float] = {}

    def fill(text: str) -> None:
        for ch in set(text).difference(char_logs):
            char_logs[ch] = log(counts[ch] / total)

    unigram_counts = tables.unigrams
    trie = tables.trie
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

    def substrings(u: str) -> tuple[list[dict[int, str]], list[float], float]:
        fill(u)
        n = len(u)
        # one shared empty dict where no lexicon word ends, never written
        empty, end = {}, SENTINEL
        starts = [empty] * (n + 1)
        for j, ch in enumerate(u):
            node, i = trie.get(ch), j + 1
            while node is not None:  # node spells u[j:i]
                if end in node:
                    if starts[i] is empty:
                        starts[i] = {j: node[end]}
                    else:
                        starts[i][j] = node[end]
                node = node.get(u[i]) if i < n else None
                i += 1
        return starts, [char_logs[ch] for ch in u], sigma_head

    bigram_counts = tables.bigrams

    def bi(prev: str, word: str) -> float:
        count = bigram_counts.get((prev, word), 0)
        if count > 0:
            return bi_head - log(count / unigram_counts[prev])
        return uni(word) - log_escape2

    trigram_counts = tables.trigrams

    def tri(prev2: str, prev1: str, word: str) -> float:
        count = trigram_counts.get((prev2, prev1, word), 0)
        if count > 0:
            return tri_head - log(count / bigram_counts[(prev2, prev1)])
        return bi(prev1, word) - log_escape3

    def refresh(tables: CountTables) -> tuple[tuple[float, float, float], int]:
        nonlocal total, sigma_head, denom1, log_escape1, bi_head, log_escape2, tri_head, \
            log_escape3
        if tables.phoneme_total != total:
            total = tables.phoneme_total
            sentinel = counts[SENTINEL]
            sigma_head = -log(sentinel / (total - sentinel))
            char_logs.clear()
        denom1 = len(unigram_counts) + tables.s1
        # with nothing observed there is no escape term, and x - 0.0 == x
        log_escape1 = log(len(unigram_counts) / denom1) if denom1 > 0 else 0.0
        uni_cache.clear()
        denom2 = len(bigram_counts) + tables.s2
        bi_head = -log(tables.s2 / denom2) if tables.s2 > 0 else None
        log_escape2 = log(len(bigram_counts) / denom2) if denom2 > 0 else 0.0
        denom3 = len(trigram_counts) + tables.s3
        tri_head = -log(tables.s3 / denom3) if tables.s3 > 0 else None
        log_escape3 = log(len(trigram_counts) / denom3) if denom3 > 0 else 0.0
        return (log_escape1, log_escape2, log_escape3), tables.s1

    return [uni, bi, tri, substrings, *refresh(tables), refresh]


def _chain(tables: CountTables) -> list:
    """The tables' back-off chain, built on first use and refreshed on the
    first read after each commit, so every reader sees the current counts.

    A commit is seen by S1 alone: every accepted commit adds its tokens, at
    least one, to S1, and a rejected one changes no count, so S1 differs
    from the one the chain was refreshed at exactly when some count moved.
    """
    chain = tables.score_cache
    if chain is None:
        chain = tables.score_cache = _log_chain(tables)
    elif chain[5] != tables.s1:
        chain[4:6] = chain[6](tables)
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

    A word u[t:i] outside the lexicon costs its spelling score less
    escapes[0], the head h less logs[t], ..., logs[i-1] in that order.  The
    scorer holds one running spelling per start for the searches to move
    on: spelled[t] is u[t:upto[t]]'s score, h with upto[t] = t until a
    search reads t.  A search reads u[t:i], i > upto[t], by subtracting
    logs[upto[t]:i] from spelled[t] in turn, one term where upto[t] =
    i - 1, and stores the score and i back.  These are the same
    subtractions, in the same order, as word_score's, so every score is
    bit-identical however it is reached, and memory is O(n) instead of the
    n(n+1)/2 substrings.  spell(t, i) gives u[t:i]'s score without storing
    it: it continues the running spelling where upto[t] <= i and spells
    from h where upto[t] > i.  wholes() lists u[:i]'s score for
    i = 0, ..., n, spelled in n subtractions.

    starts[i] maps each start of a lexicon word ending at i to that word,
    found by one walk down the tables' lexicon trie from each start, one
    dict lookup per phoneme; u must have been checked against the
    inventory, as `segment` does, since the walk trusts that no phoneme is
    SENTINEL, the key that marks a word in the trie.  The search scores
    lexicon words with the chain's uni, bi, tri and `escapes`, the chain
    word_score reads.  grow = 1 + (n + 8) 2^-50 is the searches' relative
    rounding margin for this utterance's n.  The scorer builds no chain of
    its own, and the tables must not change while it lives: a commit
    refreshes the shared chain in place on its next read, so a scorer kept
    past one would mix the refreshed uni, bi and tri with its own old
    escapes, head and logs.
    """

    __slots__ = ("starts", "logs", "head", "escapes", "grow", "uni", "bi", "tri", "spelled",
                 "upto")

    def __init__(self, tables: CountTables, u: str):
        self.uni, self.bi, self.tri, substrings, self.escapes = _chain(tables)[:5]
        self.starts, self.logs, self.head = substrings(u)
        self.grow = 1.0 + (len(u) + 8) * 2.0 ** -50
        self.spelled = [self.head] * (len(u) + 1)
        self.upto = list(range(len(u) + 1))

    def spell(self, t: int, i: int) -> float:
        last = self.upto[t]
        if last <= i:
            return reduce(sub, self.logs[last:i], self.spelled[t])
        return reduce(sub, self.logs[t:i], self.head)

    def wholes(self) -> list:
        return list(accumulate(self.logs, sub, initial=self.head))
