"""Boundary search and the incremental learn loop.

`segment` finds the segmentation of an unsegmented phoneme string with the
lowest total negative log probability under the configured model order,
by dynamic programming over prefix end positions.  Every order scores
words through the tables' one log-domain back-off chain, the one
`word_score` reads: its `estimator.UtteranceScorer` view gives each
substring's spelling score and the lexicon words among them, and the
chain is called only for those.  A word u[j:i] may start at any
j < limit[i], the start bound: one past the last vowel before i under the
vowel rule, i without it.  Under the rule an utterance without a vowel has
limit[n] = 1, so it is read as one word.

`commit` counts every token, so only lexicon words occur in a seen bigram
or trigram, and each search keeps per position only the history states
that score a next word differently (back-off state minimisation, as in
Allauzen, Mohri and Roark, ACL 2003).  Order 1 keeps one.  Order 2 keeps
the one-word reading, each lexicon last word, and one state shared by
every novel last word, one outside the lexicon, after which every next
word w adds bi("", w).  Order 3 keeps the same, but splits a lexicon last
word by the word before only where the two form a seen bigram: a trigram
is only counted along with its last bigram, so after any other pair x, w
the next word v adds tri("", w, v).  Likewise a novel word adds the same
score after every history, so its cell is one addition to the best
reading ending where it starts.  Float rounding is monotone, so
min(x) + c is bit-identical to min(x + c), and every score equals the one
a dense search over all histories computes.

Each column i scans its novel cells from the right and stops at the first
start j where either of two strict tests holds, so no start it skips could
win or tie.  Each compares with the running minimum of the column's novel
cells, or at order 1, which scores its lexicon cells first, of all its
cells: any score some cell of the column reaches will do.  The cost test:
the cost alone, u[j:i]'s spelling score less the escape terms, exceeds
the minimum; it only grows leftwards, as rounding is monotone and each
phoneme term is >= 0, and no history scores below 0.  The bar test: the
cell exceeds (minimum + g) * grow.  The gap g is what merging two adjacent
novel words saves at least: h - e1, h - e1 - e2 and h - e1 - e2 - e3 at
orders 1, 2 and 3, with h = -ln(f#/(1 - f#)) > 0 (f# < 1/2 in every mode)
and each e_k <= 0.  In real arithmetic, let B be the reading a novel cell
adds its word to (best at order 1, ending at orders 2 and 3), E its escape
terms and p(t, j) the phoneme terms of u[t:j].  If u[t:j] may be read as a
novel word, B(j) <= B(t) + h + p(t, j) - E, so the cell (t, i) =
B(t) + h + p(t, i) - E >= B(j) + p(j, i) = cell (j, i) - g.  At order 3
the cell also reads u[:t] alone first, with one escape term fewer; as
u[:t], u[t:j] counts in ending[j], that obeys the bound too, so the bar
tests ending[j] + added, not its minimum with that opening.  Two guards
make every t < j such a start: no lexicon word ends at j (`not starts[j]`;
a lexicon word scores by its count, which can exceed its spelling), and
the vowel rule allows every word ending at j (`limit[j] == j`, always true
without the rule).  Rounding: every term is >= 0, so a float sum of m
terms is within a factor (1 +- 2^-53)^m of its real value, whatever its
size.  Each side sums at most n + 4 terms, B counted as one, so the two
sides, g and the bar lose at most (2n + 17) 2^-53 relative, which
grow = 1 + (n + 8) 2^-50 covers for any score and any n below 2^45.
A cell that meets either test exceeds the minimum, so both are asked only
where a cell fails the update.

Only lexicon cells are stored, one dict per column, and the columns'
spelling windows (`UtteranceScorer.columns`), each column's at orders 2
and 3: a scan that stops trims its window to the starts it reached and
three more, as the next column's scan often goes a start or two further,
so on a line of lexicon words memory is O(n).  Order 1 trims nothing where
a lexicon cell's bar stops the scan: the next column may scan far past it.
No window up to column _SHORT is trimmed: on corpus-length utterances the
trim and the spelling from scratch of a start a later scan reaches again
cost more than the subtractions they save.  A lexicon cell costs O(1 + k)
for the k lexicon words ending where it starts, plus at order 3 the splits
stored for each that forms a seen bigram with it, each one lookup and at
most one chain call: an unseen bigram adds uni(w) - e2 and an unseen
trigram bi(w1, w) - e3, computed once per (w1, w), without bi or tri.

Ties are resolved exactly as a strict `score < best` update does when the
unsplit candidate is examined first and split points are visited left to
right: at equal score the candidate keeping the whole remaining span as
one word survives.  Order 1 keeps the leftmost minimum: its lexicon cells,
left to right, win on `<`, then its novel cells, from the right, on `<` or
on a tie left of the split held.  Orders 2 and 3 store no back-pointers:
`_walk_back` takes, from the end, the first start of the word before that
reaches the cell's score, rounding near-ties included.  Each lexicon start
comes as plain data, its value and its reach with its own bi or tri term;
one helper per search recomputes any other cell, skipped or not, with the
forward pass's own expression.  Every other start adds one shared term c
to a reading whose best value the forward pass stored, so by the monotone
rounding above they are scanned only when that best value plus c reaches
the score T.  At order 3 the first word read alone is one of them when it
is outside the lexicon (a lexicon one may form a seen bigram, with its own
term); as fl(min(a, b) + c) = min(fl(a + c), fl(b + c)), one bound covers
it and novel[j].  The one-word reading, the leftmost start, is tested
first.  The rest are scanned from the first lexicon start that reached T
leftwards, keeping the last to reach T, down to a start s that shows none
further left reaches T, so a start left of a trimmed window is seldom
spelled from scratch.  The floor test: fl(floor(s) + c) > T, where
floor(s), the spelling score less the escape terms (plus the word's own
term at order 3), is at most the cell and never falls leftwards.  The bar
test: the cell plus c exceeds (T + g) * grow where both guards above hold;
each cell to its left is at least s's late reading less g, and each side
sums at most n + 6 terms, c and T counted as one, which grow still covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .estimator import UtteranceScorer, check_order
from .tables import CountTables, PhonemeMode

_INF = math.inf
# no window up to this column is trimmed (module docstring)
_SHORT = 16


@dataclass(frozen=True)
class Segmentation:
    """A phoneme stream read as words.

    `words` is a tuple of non-empty strings that concatenates back to
    `phonemes`: from_words and from_boundaries check it, and the search
    builds it so.
    """

    phonemes: str
    words: tuple[str, ...]

    @classmethod
    def from_words(cls, words) -> "Segmentation":
        words = tuple(words)
        if not words or any(not w for w in words):
            raise ValueError("segmentation words must be non-empty")
        return cls("".join(words), words)

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
        return cls(phonemes, words)


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
        words, score = _search_bigram(scorer, u, limit, tables.bigrams)
    else:
        words, score = _search_trigram(scorer, u, limit, tables.bigrams, tables.trigrams)
    return Segmentation(u, tuple(words)), score


def _search_unigram(scorer, u, limit):
    n = len(u)
    uni, starts, escape1 = scorer.uni, scorer.starts, scorer.escapes[0]
    gap, grow, widen = scorer.gaps[0], scorer.grow, scorer.widen
    best = [0.0] * (n + 1)
    back = [0] * (n + 1)
    for i, col in enumerate(scorer.columns(), 1):
        here, lim = starts[i], limit[i]
        score, split = _INF, 0  # an infeasible prefix scores +inf, never wins
        # lexicon cells left to right, then novel ones from the right: the leftmost minimum
        for j, word in here.items():
            if j >= lim:
                break
            cand = best[j] + uni(word)
            if cand < score:
                score, split = cand, j
        bar = (score + gap) * grow
        for j in range(lim - 1, -1, -1):
            if j not in here:
                try:
                    cost = col[i - j] - escape1  # uni(u[j:i])
                except IndexError:
                    cost = widen(col, j, i) - escape1
                cand = best[j] + cost
                if cand < score or cand == score and j < split:
                    score, split = cand, j
                    bar = (cand + gap) * grow
                elif cost > score or cand > bar and not starts[j] and limit[j] == j:
                    if i > _SHORT and (cost > score or split not in here):  # module docstring
                        del col[i - j + 4:]
                    break
        best[i] = score
        back[i] = split
    out, i = [], n
    while i:
        out.append(u[back[i]:i])
        i = back[i]
    return out[::-1], best[n]


def _search_bigram(scorer, u, limit, bigrams):
    n = len(u)
    uni, bi, starts, widen = scorer.uni, scorer.bi, scorer.starts, scorer.widen
    escape1, escape2, _ = scorer.escapes
    gap, grow, wholes = scorer.gaps[1], scorer.grow, scorer.wholes()
    # cells[i][j]: best score for u[:i] whose last word is the lexicon word
    # u[j:i], for each j < limit[i] in starts[i], in the same order; j == 0
    # is the single-word reading, scored as a first word.  novel[i]: the best
    # reading of u[:i] whose last word is outside the lexicon, which all
    # score the next word alike; ending[i]: the best reading of u[:i];
    # spelled[i]: column i's window.
    cells, spelled = [{}], [None] * (n + 1)
    novel, ending = [_INF] * (n + 1), [_INF] * (n + 1)
    for i, col in enumerate(scorer.columns(), 1):
        here, lim = starts[i], limit[i]
        shared = bar = _INF
        for j in range(lim - 1, 0, -1):
            if j not in here:
                try:
                    base = col[i - j] - escape1 - escape2  # bi("", u[j:i])
                except IndexError:
                    base = widen(col, j, i) - escape1 - escape2
                score = ending[j] + base
                if score < shared:
                    shared = score
                    bar = (score + gap) * grow
                elif base > shared or score > bar and not starts[j] and limit[j] == j:
                    if i > _SHORT:
                        del col[i - j + 4:]
                    break
        spelled[i] = col
        if lim and 0 not in here:
            score = wholes[i] - escape1  # uni(u[:i])
            if score < shared:
                shared = score
        top = shared
        lexical = {}
        for j, word in here.items():
            if j >= lim:
                break
            alone = uni(word)
            base = alone - escape2  # bi(prev, word) for every unseen pair
            score = novel[j] + base if j else alone
            # the lexicon cells of column j are the first of starts[j]
            for prev, value in zip(starts[j].values(), cells[j].values()):
                cand = value + (bi(prev, word) if (prev, word) in bigrams else base)
                if cand < score:
                    score = cand
            lexical[j] = score
            if score < top:
                top = score
        cells.append(lexical)
        novel[i] = shared
        ending[i] = top

    walk = cells, novel, ending, spelled, wholes, starts, widen, uni, bi, bigrams, escape1, escape2

    def step(j, i, word, v):
        cells, novel, _, _, wholes, starts, _, uni, bi, bigrams, escape1, escape2 = walk
        base = uni(word) - escape2 if word else 0.0  # bi("", word)
        lexical = []
        for (t, prev), value in zip(starts[j].items(), cells[j].values()):
            term = bi(prev, word) if (prev, word) in bigrams else base
            lexical.append((t, value + term, value))
        return lexical, wholes[j] - escape1, 0.0, base, novel[j] + base

    def cell(t, j):
        _, _, ending, spelled, _, _, widen, _, _, _, escape1, escape2 = walk
        col = spelled[j]
        try:
            spell = col[j - t] - escape1 - escape2
        except IndexError:
            spell = widen(col, t, j) - escape1 - escape2
        return ending[t] + spell, spell

    return _walk_back(u, ending[n], starts, limit, gap, grow, step, cell)


def _search_trigram(scorer, u, limit, bigrams, trigrams):
    n = len(u)
    uni, bi, tri, starts = scorer.uni, scorer.bi, scorer.tri, scorer.starts
    widen, (escape1, escape2, escape3) = scorer.widen, scorer.escapes
    gap, grow, wholes = scorer.gaps[2], scorer.grow, scorer.wholes()
    # Pair (j, i) stands for the readings of u[:i] in two or more words
    # whose last word is u[j:i].  For a lexicon word u[j:i], j < limit[i],
    # cells[i][j] = (best, rest, split): best is the best of those readings;
    # split maps each k whose u[k:j], u[j:i] is a seen bigram to the best
    # reading ending in those two words, and rest is the best over every
    # other k, after which every next word v adds tri("", u[j:i], v).
    # novel[i] is the best pair (j, i), j >= 1, whose last word u[j:i] is
    # outside the lexicon; ending[i] is the best pair (j, i) over every
    # j >= 1; firsts[i] scores u[:i] as the first word; spelled[i]: column
    # i's window.
    cells, spelled = [{}], [None] * (n + 1)
    novel, ending, firsts = [_INF] * (n + 1), [_INF] * (n + 1), [_INF] * (n + 1)
    for i, col in enumerate(scorer.columns(), 1):
        here, lim = starts[i], limit[i]
        shared = bar = _INF
        for j in range(lim - 1, 0, -1):
            if j not in here:
                try:
                    base = col[i - j] - escape1 - escape2  # bi("", u[j:i])
                except IndexError:
                    base = widen(col, j, i) - escape1 - escape2
                added = base - escape3  # tri("", "", u[j:i])
                # base after the first word alone, added after two or more
                late = ending[j] + added
                opening = firsts[j] + base
                top = opening if opening < late else late
                if top < shared:
                    shared = top
                    bar = (top + gap) * grow
                elif base > shared or late > bar and not starts[j] and limit[j] == j:
                    if i > _SHORT:
                        del col[i - j + 4:]
                    break
        spelled[i] = col
        overall = shared
        lexical = {}
        for j, word in here.items():
            if j >= lim:
                break
            if not j:
                continue
            base = uni(word) - escape2
            added = base - escape3
            others = novel[j] + added
            top, scores, before = _INF, {}, starts[j]
            if 0 in before and (before[0], word) in bigrams:
                top = scores[0] = firsts[j] + bi(before[0], word)
            else:
                opening = firsts[j] + base
                if opening < others:
                    others = opening
            for k, (value, rest, split) in cells[j].items():
                prev1 = before[k]
                if (prev1, word) not in bigrams:
                    score = value + added
                    if score < others:
                        others = score
                    continue
                # tri(prev2, prev1, word) for every unseen trigram, "" first
                backoff = bi(prev1, word) - escape3
                score = rest + backoff
                for t, prefix in split.items():
                    prev2 = starts[k][t]
                    cand = prefix + (tri(prev2, prev1, word) if (prev2, prev1, word) in trigrams
                                     else backoff)
                    if cand < score:
                        score = cand
                scores[k] = score
                if score < top:
                    top = score
            if others < top:
                top = others
            lexical[j] = top, others, scores
            if top < overall:
                overall = top
        cells.append(lexical)
        novel[i] = shared
        ending[i] = overall
        if lim:
            firsts[i] = uni(here[0]) if 0 in here else wholes[i] - escape1

    walk = (cells, novel, ending, firsts, spelled, starts, widen, uni, bi, tri, trigrams,
            escape1, escape2, escape3)

    def step(j, i, word, v):
        cells, novel, _, firsts, _, starts, _, uni, bi, tri, trigrams, _, escape2, escape3 = walk
        # for the last word (None) a start's value is its best reading, u[t:j] last
        pair = cells[i][j][2] if word and j in cells[i] else {}
        base = uni(word) - escape2 if word else 0.0
        added = base - escape3 if word else 0.0
        # v's term after any history that forms no seen trigram with it
        other = bi(word, v) - escape3 if v else 0.0
        opening = firsts[j] + base
        others = novel[j] + added
        before, here, lexical = starts[j], cells[j], []
        if 0 not in before and opening < others:
            others = opening
        for t, prev in before.items():
            if t in pair:
                value = pair[t]
            elif not t:
                value = opening
            elif t in here:
                value = here[t][0] + added
            else:  # at or past the start bound
                break
            term = tri(prev, word, v) if (prev, word, v) in trigrams else other
            lexical.append((t, value + term, value))
        return lexical, opening, added, other, others + other

    def cell(t, j):
        _, _, ending, firsts, spelled, _, widen, _, _, _, _, escape1, escape2, escape3 = walk
        col = spelled[j]
        try:
            spell = col[j - t] - escape1 - escape2
        except IndexError:
            spell = widen(col, t, j) - escape1 - escape2
        late = ending[t] + (spell - escape3)
        opening = firsts[t] + spell
        return opening if opening < late else late, spell

    score = firsts[n] if firsts[n] < ending[n] else ending[n]
    return _walk_back(u, score, starts, limit, gap, grow, step, cell)


def _walk_back(u, score, starts, limit, gap, grow, step, cell):
    """The winning path's words and the best score, ties broken as above.

    step(j, i, word, v) gives, for the word u[j:i] with next word v,
    (lexical, opening, added, shared, bound): lexical holds (t, reach,
    value) for each stored lexicon start t of the word before, in order,
    value the best reading ending in u[t:j], u[j:i] and reach that plus
    v's term.  Any other start t > 0 has the value cell(t, j)[0] + added,
    the one-word reading opening, and reaches that plus shared; bound is
    the least of those reaches.  step(n, None, None, None) picks the last
    word, with terms of 0.0.  cell(t, j) recomputes a novel cell with the
    forward pass's expression and gives floor(t) for the stop tests too;
    at or past the start bound that is no reading at all, but such a t
    never decides: the start chosen lies before it, and only the first to
    reach the score is taken.  The helpers read the search's tables from
    one tuple, `walk`, that holds neither of them: closing over the tables
    makes them slower cell variables, and a helper in the tuple a reference
    cycle.  A word whose score no start reaches, which only a wrong bound
    can leave, raises RuntimeError.
    """
    target = score
    j = len(u)
    i = word = v = None
    out = []
    while j:
        lexical, opening, added, shared, bound = step(j, i, word, v)
        before = starts[j]
        k = j
        for t, reach, value in lexical:
            if reach == target:
                k, found = t, value
                break
        if bound == target:
            if 0 not in before and opening + shared == target:
                k, found = 0, opening
            else:  # from the right, down to a stop test
                for t in range(k - 1, 0, -1):
                    if t not in before:
                        value, spell = cell(t, j)
                        value += added
                        reach = value + shared
                        if reach == target:
                            k, found = t, value
                        elif (reach > (target + gap) * grow and not starts[t] and limit[t] == t
                              or spell + added + shared > target):
                            break
        if k == j:
            raise RuntimeError(f"no start of a word ending at {j} reaches {target!r}")
        target = found
        i, j, v, word = j, k, word, u[k:j]
        out.append(word)
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
