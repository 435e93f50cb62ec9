"""Boundary search and the incremental learn loop.

`segment` finds the segmentation of an unsegmented phoneme string with the
lowest total negative log probability under the configured model order,
by dynamic programming over prefix end positions.  For the bigram and
trigram models the state carries the start of the last one or two words,
since those determine every later word's conditioning context.  The cell
counts are O(n^2)/O(n^3)/O(n^4) in the utterance length n.  That is cheap
for child-directed utterances of about ten phonemes, but not in general: a
100-phoneme utterance takes on the order of seconds at order 3.  Every
model order scores words through the one log-domain back-off chain of
`estimator.UtteranceScorer`, keyed by the substrings themselves.

Ties are resolved exactly as a strict `score < best` update does when the
unsplit candidate is examined first and split points are visited left to
right: at equal score the candidate keeping the whole remaining span as
one word survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .estimator import UtteranceScorer, word_score
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
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {self.order}")


def segment(tables: CountTables, u: str, cfg: LearnerConfig) -> tuple[Segmentation, float]:
    """Best-scoring segmentation of `u` and its total score.

    The tables are only read.  With require_vowel set, words without a
    vowel are excluded from consideration; if the whole utterance has no
    vowel it is returned as a single word so the search stays feasible.
    """
    if not u:
        raise ValueError("cannot segment an empty utterance")
    allowed = None
    if cfg.require_vowel:
        is_vowel = tables.inventory.is_vowel
        vowels_before = [0]
        for ch in u:
            vowels_before.append(vowels_before[-1] + (1 if is_vowel(ch) else 0))
        if vowels_before[-1] == 0:
            return Segmentation.from_words((u,)), word_score(tables, (), u, cfg.order)

        def allowed(start: int, end: int) -> bool:
            return vowels_before[end] > vowels_before[start]

    scorer = UtteranceScorer(tables, u)
    if cfg.order == 1:
        words, score = _search_unigram(scorer, u, allowed)
    elif cfg.order == 2:
        words, score = _search_bigram(scorer, u, allowed)
    else:
        words, score = _search_trigram(scorer, u, allowed, tables.bigrams)
    return Segmentation.from_words(words), score


def _search_unigram(scorer, u, allowed):
    n = len(u)
    uni = scorer.uni
    words = scorer.words
    best = [0.0] * (n + 1)
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        score = uni(words[0][i]) if allowed is None or allowed(0, i) else _INF
        split = 0
        for j in range(1, i):
            if best[j] == _INF or (allowed is not None and not allowed(j, i)):
                continue
            cand = best[j] + uni(words[j][i])
            if cand < score:
                score = cand
                split = j
        best[i] = score
        back[i] = split
    out = []
    i = n
    while i > 0:
        out.append(words[back[i]][i])
        i = back[i]
    out.reverse()
    return out, best[n]


def _search_bigram(scorer, u, allowed):
    n = len(u)
    uni = scorer.uni
    bi = scorer.bi
    words = scorer.words
    # state[j][i]: best score for u[:i] whose last word is u[j:i];
    # j == 0 is the single-word reading, scored as a first word.
    state = [[_INF] * (n + 1) for _ in range(n)]
    back = [[-1] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        if allowed is None or allowed(0, i):
            state[0][i] = uni(words[0][i])
        for j in range(1, i):
            if allowed is not None and not allowed(j, i):
                continue
            word = words[j][i]
            score = _INF
            split = -1
            for k in range(j):
                prefix = state[k][j]
                if prefix == _INF:
                    continue
                cand = prefix + bi(words[k][j], word)
                if cand < score:
                    score = cand
                    split = k
            state[j][i] = score
            back[j][i] = split
    score = state[0][n]
    last = 0
    for j in range(1, n):
        if state[j][n] < score:
            score = state[j][n]
            last = j
    out = []
    i, j = n, last
    while j > 0:
        out.append(words[j][i])
        i, j = j, back[j][i]
    out.append(words[0][i])
    out.reverse()
    return out, score


def _search_trigram(scorer, u, allowed, bigram_counts):
    n = len(u)
    uni = scorer.uni
    bi = scorer.bi
    tri = scorer.tri
    words = scorer.words
    # state[(k, j, i)]: best score for u[:i] ending in words u[k:j], u[j:i].
    # k == 0 means u[k:j] is the first word (unigram + bigram scored base).
    state: dict[tuple[int, int, int], float] = {}
    back: dict[tuple[int, int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            if allowed is not None and not allowed(j, i):
                continue
            word = words[j][i]
            if allowed is None or allowed(0, j):
                state[(0, j, i)] = uni(words[0][j]) + bi(words[0][j], word)
                back[(0, j, i)] = -1
            for k in range(1, j):
                if allowed is not None and not allowed(k, j):
                    continue
                prev1 = words[k][j]
                score = _INF
                split = -1
                if (prev1, word) in bigram_counts:
                    for t in range(k):
                        prefix = state.get((t, k, j))
                        if prefix is None:
                            continue
                        cand = prefix + tri(words[t][k], prev1, word)
                        if cand < score:
                            score = cand
                            split = t
                else:
                    # a trigram x, prev1, word is only ever counted along
                    # with the bigram prev1, word, so with that pair unseen
                    # the added score is the same for every third-back word
                    added = tri(words[0][k], prev1, word)
                    for t in range(k):
                        prefix = state.get((t, k, j))
                        if prefix is None:
                            continue
                        cand = prefix + added
                        if cand < score:
                            score = cand
                            split = t
                if split >= 0:
                    state[(k, j, i)] = score
                    back[(k, j, i)] = split
    score = uni(words[0][n]) if allowed is None or allowed(0, n) else _INF
    winner = None
    for j in range(1, n):
        for k in range(j):
            cand = state.get((k, j, n))
            if cand is not None and cand < score:
                score = cand
                winner = (k, j)
    if winner is None:
        return [u], score
    k, j = winner
    out = [words[j][n]]
    i = n
    while True:
        out.append(words[k][j])
        t = back[(k, j, i)]
        if t < 0:
            break
        k, j, i = t, k, j
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
