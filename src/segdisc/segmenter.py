"""Boundary search and the incremental learn loop.

`segment` finds the segmentation of an unsegmented phoneme string with the
lowest total negative log probability under the configured model order,
by dynamic programming over prefix end positions.  Every model order
scores words through the tables' one log-domain back-off chain, the one
`word_score` reads, built on first use after a commit: its
`estimator.UtteranceScorer` view gives each substring's unigram cost and
the lexicon words among them, and the chain is called only for those.  A
word u[j:i] may start at any j < limit[i], the start bound: one past the
last vowel before i under the vowel rule, i without it.  Under the rule an
utterance without a vowel has limit[n] = 1, so it is read as one word.

`commit` counts every token, so only lexicon words occur in a seen bigram
or trigram, and each search keeps per position only the history states
that score a next word differently (back-off state minimisation, as in
Allauzen, Mohri and Roark, ACL 2003).  Order 1 keeps one.  Order 2 keeps
the one-word reading, each lexicon last word, and one state shared by
every last word outside the lexicon, after which every next word w adds
bi("", w).  Order 3 keeps the same, but splits a lexicon last word by the
word before only where the two form a seen bigram: a trigram is only
counted along with its last bigram, so after any other pair x, w the next
word v adds tri("", w, v).  Likewise a word outside the lexicon adds the
same score after every history, bi("", w), or tri("", "", w) after two or
more words, so its cell is one addition to the best reading ending where
it starts.  Float rounding is monotone, so min(x) + c is bit-identical to
min(x + c), and every score equals the one a dense search over all
histories computes.

The search visits O(n^2) cells (pairs of end positions) of an n-phoneme
utterance, where the dense searches took O(n^3) and O(n^4).  At orders 2
and 3 a lexicon word's cell costs O(1 + h) for the h lexicon words ending
where it starts, plus at order 3 the splits stored for each that forms a
seen bigram with it; every other cell costs O(1).  The scorer's cost
columns take O(n^2) float subtractions, one column costs[i] per end
position, plus lookups only along lexicon prefixes; words are sliced only
for lexicon cells and on the winning path.

Ties are resolved exactly as a strict `score < best` update does when the
unsplit candidate is examined first and split points are visited left to
right: at equal score the candidate keeping the whole remaining span as
one word survives.  The order-2 and order-3 searches store no back-pointers.
Once the best score is known, they rescan only the cells of the winning
path and take, for each, the first start of the word before that reaches
the cell's score: the one a strict `<` scan keeps.  That holds for rounding
near-ties as well, where two different prefixes plus the same word score
round to the same float.  The rescan tests on its own each start of a
lexicon word ending where the cell's word starts, with its own bi or tri
term, and at order 3 the first word read alone.  Every other start adds
one shared term to a reading whose best value the forward pass stored,
novel[j], and by the monotone rounding above none of them reaches the
score unless novel[j] plus that term does.  Only then are they scanned, in
increasing order up to the first lexicon start that reached it.  A word
on the winning path so costs O(1 + h) for the h lexicon words ending where
it starts, and O(n) at worst, when the word before it is outside the
lexicon or ties with one that is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .estimator import UtteranceScorer, check_order
from .tables import CountTables, PhonemeMode

_INF = math.inf


@dataclass(frozen=True)
class Segmentation:
    """A phoneme stream with word boundaries.

    `boundaries` holds the internal split positions, strictly increasing
    and exclusive of 0 and len(phonemes); `words` is the induced tuple and
    always concatenates back to `phonemes`.
    """

    phonemes: str
    boundaries: tuple[int, ...]
    words: tuple[str, ...]

    @classmethod
    def from_words(cls, words) -> "Segmentation":
        words = tuple(words)
        if not words or any(not w for w in words):
            raise ValueError("segmentation words must be non-empty")
        bounds = tuple(accumulate(len(w) for w in words[:-1]))
        return cls("".join(words), bounds, words)

    @classmethod
    def from_boundaries(cls, phonemes: str, boundaries) -> "Segmentation":
        if not phonemes:
            raise ValueError("cannot segment an empty phoneme string")
        boundaries = tuple(boundaries)
        previous = 0
        for b in boundaries:
            if not previous < b < len(phonemes):
                raise ValueError(f"boundary {b} out of order for length {len(phonemes)}")
            previous = b
        edges = (0,) + boundaries + (len(phonemes),)
        words = tuple(phonemes[a:b] for a, b in zip(edges, edges[1:]))
        return cls(phonemes, boundaries, words)


@dataclass(frozen=True)
class LearnerConfig:
    order: int = 1
    phoneme_mode: PhonemeMode = PhonemeMode.LEXICON
    require_vowel: bool = False

    def __post_init__(self):
        check_order(self.order)
        # a mode's value names it too; an unknown name raises ValueError
        object.__setattr__(self, "phoneme_mode", PhonemeMode(self.phoneme_mode))


def segment(tables: CountTables, u: str, cfg: LearnerConfig) -> tuple[Segmentation, float]:
    """Best-scoring segmentation of `u` and its total score.

    The tables are only read.  With require_vowel set, words without a
    vowel are excluded from consideration; if the whole utterance has no
    vowel, the start bound admits only the whole utterance as one word, so
    the search stays feasible and scores it as any one-word reading.  A
    symbol outside the phoneme inventory raises UnknownPhoneme.
    """
    if not u:
        raise ValueError("cannot segment an empty utterance")
    tables.inventory.check(u)
    n = len(u)
    # the start bound: a word u[j:i] may be read for every j < limit[i],
    # which under the vowel rule is one past the last vowel before i; an
    # utterance without a vowel may only be read whole
    limit = range(n + 1)
    if cfg.require_vowel:
        is_vowel = tables.inventory.is_vowel
        limit = list(accumulate((i if is_vowel(ch) else 0 for i, ch in enumerate(u, 1)),
                                max, initial=0))
        if not limit[n]:
            limit[n] = 1

    scorer = UtteranceScorer(tables, u)
    if cfg.order == 1:
        words, score = _search_unigram(scorer, u, limit)
    elif cfg.order == 2:
        words, score = _search_bigram(scorer, u, limit)
    else:
        words, score = _search_trigram(scorer, u, limit, tables.bigrams)
    return Segmentation.from_words(words), score


def _search_unigram(scorer, u, limit):
    n = len(u)
    costs = scorer.costs
    best = [0.0] * (n + 1)
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        col = costs[i]
        # an infeasible prefix scores +inf, so it never wins a strict <
        score = col[0] if limit[i] else _INF
        split = 0
        for j in range(1, limit[i]):
            cand = best[j] + col[j]
            if cand < score:
                score = cand
                split = j
        best[i] = score
        back[i] = split
    out = []
    i = n
    while i > 0:
        out.append(u[back[i]:i])
        i = back[i]
    out.reverse()
    return out, best[n]


def _search_bigram(scorer, u, limit):
    n = len(u)
    bi = scorer.bi
    costs = scorer.costs
    starts = scorer.starts
    escape2 = scorer.escapes[0]
    # state[j][i]: best score for u[:i] whose last word is u[j:i];
    # j == 0 is the single-word reading, scored as a first word.
    state = [[_INF] * (n + 1) for _ in range(n)]
    # novel[j]: the best state[k][j] over the k outside starts[j], which all
    # score the next word alike; ending[j]: the best state[k][j] over every k.
    novel = [_INF] * (n + 1)
    ending = [_INF] * (n + 1)
    for i in range(1, n + 1):
        here = starts[i]
        col = costs[i]
        state[0][i] = top = col[0] if limit[i] else _INF
        shared = _INF if 0 in here else top
        for j in range(1, limit[i]):
            base = col[j] - escape2  # bi("", u[j:i])
            if j not in here:
                score = ending[j] + base
                if score < shared:
                    shared = score
            else:
                word = here[j]
                score = novel[j] + base
                for k, prev in starts[j].items():
                    cand = state[k][j] + bi(prev, word)
                    if cand < score:
                        score = cand
            state[j][i] = score
            if score < top:
                top = score
        novel[i] = shared
        ending[i] = top
    last_words = [state[j][n] for j in range(n)]
    score = min(last_words)
    j = last_words.index(score)
    out = []
    i = n
    while j > 0:
        word = u[j:i]
        out.append(word)
        # the dense scan's choice: the first k that reaches the cell's score,
        # each lexicon start tested alone, the others only if novel[j] + base
        # reaches it (see the module docstring)
        target = state[j][i]
        before = starts[j]
        base = costs[i][j] - escape2
        k = j
        for t, prev in before.items():
            if state[t][j] + bi(prev, word) == target:
                k = t
                break
        if novel[j] + base == target:
            t = 0
            while t < k and (t in before or state[t][j] + base != target):
                t += 1
            k = t
        i, j = j, k
    out.append(u[:i])
    out.reverse()
    return out, score


def _search_trigram(scorer, u, limit, bigram_counts):
    n = len(u)
    bi = scorer.bi
    tri = scorer.tri
    costs = scorer.costs
    starts = scorer.starts
    escape2, escape3 = scorer.escapes
    # Pair (j, i) stands for the readings of u[:i] in two or more words
    # whose last word is u[j:i]; best[j][i] is the best of them.  When
    # u[j:i] is a lexicon word, split[j][i] maps each k whose u[k:j], u[j:i]
    # is a seen bigram to the best reading ending in those two words, and
    # rest[j][i] is the best over every other k, after which every next
    # word v adds tri("", u[j:i], v).  Each row of split shares one empty
    # dict, which is replaced, never changed.  novel[j] is the best pair
    # (k, j), k >= 1, whose last word u[k:j] is outside the lexicon;
    # ending[j] is the best pair (k, j) over every k >= 1.
    best = [[_INF] * (n + 1) for _ in range(n)]
    rest = [[_INF] * (n + 1) for _ in range(n)]
    split = [[{}] * (n + 1) for _ in range(n)]
    novel = [_INF] * (n + 1)
    ending = [_INF] * (n + 1)
    # firsts[j]: score of u[:j] as the first word
    firsts = [_INF] + [costs[j][0] if limit[j] else _INF for j in range(1, n + 1)]
    for i in range(1, n + 1):
        here = starts[i]
        col = costs[i]
        shared = overall = _INF
        for j in range(1, limit[i]):
            base = col[j] - escape2  # bi("", u[j:i])
            added = base - escape3  # tri("", "", u[j:i])
            if j not in here:
                # base after the first word alone, added after two or more
                top = ending[j] + added
                opening = firsts[j] + base
                top = opening if opening < top else top
                if top < shared:
                    shared = top
            else:
                word = here[j]
                others = novel[j] + added
                top = _INF
                scores = {}
                for k, prev1 in starts[j].items():
                    if (prev1, word) not in bigram_counts:
                        if k:
                            score = best[k][j] + added
                            if score < others:
                                others = score
                        continue
                    if k:
                        score = rest[k][j] + tri("", prev1, word)
                        for t, prefix in split[k][j].items():
                            cand = prefix + tri(starts[k][t], prev1, word)
                            if cand < score:
                                score = cand
                    else:
                        score = firsts[j] + bi(prev1, word)
                    scores[k] = score
                    if score < top:
                        top = score
                if 0 not in scores:
                    opening = firsts[j] + base
                    if opening < others:
                        others = opening
                rest[j][i] = others
                split[j][i] = scores
                if others < top:
                    top = others
            best[j][i] = top
            if top < overall:
                overall = top
        novel[i] = shared
        ending[i] = overall

    # the unsplit reading is examined first, then pairs (j, n) in
    # increasing j; the first to reach the best score wins
    last = [firsts[n]] + [best[j][n] for j in range(1, n)]
    score = min(last)
    j = last.index(score)
    if not j:
        return [u], score
    # Each step takes a pair (j, i) of the winning path, reached at score
    # `target` with next word v, and finds the first k whose reading u[k:j],
    # u[j:i] plus tri(u[k:j], u[j:i], v) reaches the target; at the last
    # pair there is no v and the term is 0.0.  k = 0 and each lexicon start
    # are tested alone, the other k only if novel[j] can reach the target
    out = [u[j:]]
    target = score
    i = n
    v = None
    while j:
        word = u[j:i]
        before = starts[j]
        pair = split[j][i]
        base = costs[i][j] - escape2
        added = base - escape3
        seen = (word, v) in bigram_counts
        other = tri("", word, v) if v else 0.0
        opening = firsts[j] + base
        if 0 not in before and opening + other == target:
            k = 0
            found = opening
        else:
            k = j
            for t, prev in before.items():
                value = pair[t] if t in pair else (best[t][j] + added if t else opening)
                if value + (tri(prev, word, v) if seen else other) == target:
                    k = t
                    found = value
                    break
            if novel[j] + added + other == target:
                t = 1
                while t < k and (t in before or best[t][j] + added + other != target):
                    t += 1
                if t < k:
                    k = t
                    found = best[t][j] + added
        out.append(u[k:j])
        target = found
        j, i, v = k, j, word
    out.reverse()
    return out, score


def process_utterance(tables: CountTables, u: str, cfg: LearnerConfig) -> Segmentation:
    """Segment one utterance and commit the result before moving on."""
    seg, _ = segment(tables, u, cfg)
    tables.commit(seg.words, cfg.phoneme_mode)
    return seg


def train_utterance(tables: CountTables, reference, cfg: LearnerConfig) -> None:
    """Commit a known-correct segmentation without running the search."""
    tables.commit(tuple(reference), cfg.phoneme_mode)
