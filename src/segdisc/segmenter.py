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

Each column i scans its starts from the right.  B(t) is the reading a
novel cell (t, i) adds its word to: best[t], ending[t] and, as order 3 may
read u[:t] alone first, min(ending[t] - e3, firsts[t]) at orders 1, 2 and
3.  E is the word's other escape terms, e1, e1 + e2 and e1 + e2;
h = -ln(f#/(1 - f#)) > 0 is the spelling head term (f# < 1/2), and
wholes[t] = h + P(t), P(t) the phoneme terms of u[:t].  In real arithmetic
the cell is B(t) + h + P(i) - P(t) - E = K(t) + c(i), with the key
K(t) = B(t) - wholes[t] and c(i) = wholes[i] + h - E.  Each search keeps
keys[j], the least K(t) over 1 <= t <= j, and s, the running minimum of
the column's novel cells (of all its cells at order 1, which scores its
lexicon cells and start 0 first), seeded at orders 2 and 3 as below.
The scan stops, before reading j, at the first j with keys[j] > s * grow +
wholes[i] * (grow - 2) - (h - E), s - c(i) plus a margin
(grow - 1)(s + wholes[i]): no start t <= j can win or tie, as each scores
above s.  One with B(t) > s loses outright, as every cost is >= 0 and
rounding is monotone; so does each if h - E > s.  Otherwise B(t) <= s,
h - E <= s and wholes[t] <= wholes[i].  Every term is >= 0, so a float
sum of m terms is within (1 +- 2^-53)^m of its real value.  K is a
difference, its error relative to B(t) and wholes[t], not to K: so the
margin is absolute.  The key, the bound and a cell below 2s (one above
loses anyway) lose at most (t + 2), (i + 6) and 2(n + 4) times
2^-53 (s + wholes[i]), less than the margin 8(n + 8) 2^-53 (s + wholes[i])
for any n below 2^45.

Each search also keeps own[t], start t's own key, whose running minimum is
keys[t], and a skip link lower[t], the nearest start left of t with a
smaller own key, or 0.  Column t sets it when it closes by following the
links from t - 1 past every start whose own key is at or above own[t]; a
start passed so is never passed again, so the links cost O(n) in all.  A
start j with own[j] above the bar loses, by the key stop's argument applied
to j alone, and so does every start it links past, whose own key is at or
above own[j]; the bar only falls within a scan, so the scan jumps to
lower[j], unless keys[j] too lies above the bar and it stops.  No margin is
added: each skipped start is held to the same bar as the key stop.

Orders 2 and 3 seed s from a reading R that dominates every novel last
word: after the next word w the two share a history, and up to there R
adds at most d more.  So a novel cell above the seed, R + d plus a margin,
never scores a later cell below R's reading: novel[i] is exact below the
seed and holds the seed where no novel cell lies below it.  Order 2 scores
its lexicon cells first and takes R = b, the least of them, and
d = D = ln(N2 S1 / S2), so ending[i] and the keys stay exact.  A novel
word and a lexicon one L score every next word w alike but where L, w is
a seen bigram, and there bi(L, w) - (uni(w) - e2) = ln(N2 / S2) +
ln(C(L) / C(L, w)) - uni(w) <= D - uni(w), as C(L) <= S1; so
bi(L, w) <= D - e2.  The margin is relative to where the two merge,
b + bi(L, w) <= b + D - e2.  A log of a correctly rounded ratio is off by
at most 2^-52 of itself plus 2^-53, so the three terms are off by at most
3 * 2^-53 of themselves plus 2^-52; with the two sums and the seed's three
roundings that is at most (6b + 11D - 8e2 + 5) 2^-53 (uni(w) - e2 pays for
its own error out of the - uni(w) above), less than the margin
(grow - 1)(b + 2D - e2) >= 72 * 2^-53 (b + 2D - e2), as
D - e2 = ln(S1 (N2 + S2) / S2) >= ln 2.  Order 3 takes, where u[:i] is
outside the lexicon, R = firsts[i], u[:i] read alone: the next word w adds
uni(w) - e2 after it and uni(w) - e2 - e3 after a novel last word, as no
trigram with a novel word is seen, so d = e3 <= 0.  A lexicon u[:i] may
form a seen bigram with w, so for i < n it seeds nothing.  The seed may
stand in ending[i] too, but a novel word x after it still takes
firsts[i] + bi("", x), the lesser term, and the key
min(firsts[i], ending[i] - e3) keeps firsts[i].  The two readings add the
same terms grouped otherwise, so only roundings count, five of them, each
at most 2^-53 of the merge.  A novel next word spells at most
wholes[n] - wholes[i] + h and a lexicon one scores at most ln(N1 + S1), so
every merge lies below W = wholes[n] + (h - e1 - e2) - e1 - e3 +
ln(N1 + S1), and the margin is (grow - 1) W.  At i = n no next word
follows, so d = 0 and both orders seed with R itself, with no margin:
order 2 with b, order 3 with firsts[n] whether u is a lexicon word or not.
A novel cell above that seed scores above a reading the search already
holds, so it loses, and one equal to it is left to the walk, which
recomputes every start's reach.  Unseeded, order 3's last column read
every start of a line that is one lexicon word, as its novel cells all tie
in real arithmetic there.

Only lexicon cells are stored, one dict per column, and one running
spelling per start, the scorer's spelled[t], u[t:upto[t]]'s spelling score
before the escape term.  A scan reads u[t:i] with one subtraction,
spelled[t] - logs[i-1], where upto[t] = i - 1; a start that earlier columns
skipped (a lexicon start, one jumped over, one past the stop or the start
bound) catches up over logs[upto[t]:i].  It then stores the score and sets
upto[t] = i.
Spelling is one left-to-right chain of subtractions from h, so every score
is bit-identical to word_score's however it is reached, a start costs one
subtraction per column it moves on, and memory is O(n) on every line.  A
lexicon cell costs O(1 + k) for the k lexicon words ending where it starts,
plus at order 3 the splits stored for each that forms a seen bigram with
it, each one lookup and at most one chain call: an unseen bigram adds
uni(w) - e2 and an unseen trigram bi(w1, w) - e3, computed once per
(w1, w), without bi or tri.

Ties are resolved exactly as a strict `score < best` update does when the
unsplit candidate is examined first and split points are visited left to
right: at equal score the candidate keeping the whole remaining span as
one word survives.  Order 1 keeps the leftmost minimum: its lexicon cells,
left to right, win on `<`, start 0 on `<=`, then its novel cells, from the
right, on `<` or on a tie left of the split held.  Orders 2 and 3 keep
no back-pointers: `_walk_back` takes, from the end, the first start of the
word before that reaches the cell's score, rounding near-ties included.
Order 2 records, per lexicon cell, the first lexicon start whose candidate
equals the cell's final score: it is set on `<`, and on `==` while none is
set.  The candidate is the float the walk would compute as that start's
reach, value + (bi(w1, word) if seen else base), and the walk's target is
the stored score, so for a lexicon word the walk reads the record and
recomputes no term; for a novel word, or the last word, every lexicon start
adds one shared term, and it scans the lexicon cells for the first to reach.
Order 3's helper scores each lexicon start with its own tri or bi term and
stops at the first to reach.  Every other start adds one shared term c to
a reading at or above novel[j], equal to the best such reading where that
lies below the seed, so by the monotone rounding above they are scanned
only when novel[j] plus c reaches the score T.  At order 3 the first word
read alone is one of them when it is outside the lexicon (a lexicon one
may form a seen bigram, with its own term); as fl(min(a, b) + c) =
min(fl(a + c), fl(b + c)), one bound covers it and novel[j].  The one-word
reading, the leftmost start, is tested first.  The rest are scanned from
the first lexicon start that reached T leftwards, keeping the last to reach
T, with the jumps and down to the key stop, with i = j and s = T * grow -
d - c, d the word's own term: a reach is cell + d + c, and s keeps a
margin (grow - 1) T of its own, for its three roundings relative to T and
the reach's two.
cell(t, j) continues t's running spelling where upto[t] <= j and spells
u[t:j] from scratch, with the same chain, where the forward pass has
moved it past j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import sub

from .estimator import UtteranceScorer, check_order
from .tables import CountTables, PhonemeMode

_INF = math.inf


@dataclass(frozen=True)
class Segmentation:
    """A phoneme stream read as words.

    `words` is a tuple of non-empty strings that concatenates back to
    `phonemes`: from_words and from_boundaries check it, and the search
    and the random baseline build it so.
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
        words, score = _search_bigram(scorer, u, limit, tables)
    else:
        words, score = _search_trigram(scorer, u, limit, tables)
    return Segmentation(u, tuple(words)), score


def _search_unigram(scorer, u, limit):
    n = len(u)
    uni, starts, escape1 = scorer.uni, scorer.starts, scorer.escapes[0]
    logs, spelled, upto = scorer.logs, scorer.spelled, scorer.upto
    grow, whole = scorer.grow, scorer.head
    shrink, fixed = grow - 2.0, whole - escape1
    best, back, keys, least = [0.0] * (n + 1), [0] * (n + 1), [_INF] * (n + 1), _INF
    own, lower = [-_INF] * (n + 1), [0] * (n + 1)  # own[0] = -inf ends every link chain
    # keys[i]: least key up to i; own[i], lower[i]: i's own key and skip link;
    # whole: wholes()[i], with no list (it lifted peak RSS)
    for prev, log_i in enumerate(logs):
        i = prev + 1
        here, lim, whole = starts[i], limit[i], whole - log_i
        score, split = _INF, 0  # an infeasible prefix scores +inf, never wins
        # lexicon cells left to right, start 0, novel ones from the right: leftmost minimum
        for j, word in here.items():
            if j >= lim:
                break
            cand = best[j] + uni(word)
            if cand < score:
                score, split = cand, j
        if lim and 0 not in here:
            cand = whole - escape1  # best[0] + uni(u[:i])
            if cand <= score:
                score, split = cand, 0
        floor = whole * shrink - fixed
        bar = score * grow + floor
        j = lim - 1
        while j > 0:
            if own[j] > bar:  # j loses, and so does every start it links past
                if keys[j] > bar:
                    break
                j = lower[j]
                continue
            if j not in here:
                if upto[j] == prev:  # u[j:i]'s running spelling (module docstring)
                    cost = spelled[j] - log_i
                else:
                    cost = reduce(sub, logs[upto[j]:i], spelled[j])
                spelled[j], upto[j] = cost, i
                cand = best[j] + (cost - escape1)  # uni(u[j:i])
                if cand < score or cand == score and j < split:
                    score, split = cand, j
                    bar = cand * grow + floor
            j -= 1
        best[i] = score
        back[i] = split
        own[i] = key = score - whole
        k = prev  # the nearest start to the left with a smaller own key
        while own[k] >= key:
            k = lower[k]
        lower[i] = k
        if key < least:
            least = key
        keys[i] = least
    out, i = [], n
    while i:
        out.append(u[back[i]:i])
        i = back[i]
    return out[::-1], best[n]


def _search_bigram(scorer, u, limit, tables):
    n = len(u)
    uni, bi, starts = scorer.uni, scorer.bi, scorer.starts
    logs, spelled, upto = scorer.logs, scorer.spelled, scorer.upto
    escape1, escape2, _ = scorer.escapes
    grow, wholes, bigrams = scorer.grow, scorer.wholes(), tables.bigrams
    shrink, fixed = grow - 2.0, scorer.head - escape1 - escape2
    # the novel scan's seed above the best lexicon cell: the excess
    # ln(N2 S1 / S2) and its rounding margin (module docstring)
    excess = math.log(len(bigrams) * tables.s1 / tables.s2) if tables.s2 else 0.0
    lift = excess * grow + (excess - escape2) * (grow - 1.0)
    # cells[i][j]: best score for u[:i] whose last word is the lexicon word
    # u[j:i], for each j < limit[i] in starts[i], in the same order; j == 0
    # is the single-word reading, scored as a first word.  records[i][j]: the
    # first lexicon start of the word before whose reading reaches that
    # score, j for none.  novel[i]: the best reading of u[:i] whose last
    # word is outside the lexicon, which all score the next word alike, exact
    # below the seed; ending[i]: the best reading of u[:i]; keys[i]: the
    # least key up to i; own[i], lower[i]: i's own key and skip link.
    cells, records = [{}], [{}]
    novel, ending, keys, least = [_INF] * (n + 1), [_INF] * (n + 1), [_INF] * (n + 1), _INF
    own, lower = [-_INF] * (n + 1), [0] * (n + 1)
    for prev, log_i in enumerate(logs):
        i = prev + 1
        here, lim, whole = starts[i], limit[i], wholes[i]
        # no lexicon cell, no record: share starts[i]'s empty, never-written dict
        top, lexical, record = _INF, {}, {} if here else here
        for j, word in here.items():
            if j >= lim:
                break
            alone = uni(word)
            base = alone - escape2  # bi(w1, word) for every unseen pair
            score, k = novel[j] + base if j else alone, j
            # the lexicon cells of column j are the first of starts[j]
            for (t, w1), value in zip(starts[j].items(), cells[j].values()):
                cand = value + (bi(w1, word) if (w1, word) in bigrams else base)
                if cand < score:
                    score, k = cand, t
                elif cand == score and k == j:
                    k = t
            lexical[j] = score
            record[j] = k
            if score < top:
                top = score
        cells.append(lexical)
        records.append(record)
        shared = whole - escape1 if lim and 0 not in here else _INF  # uni(u[:i]) first
        seed = top * grow + lift if i < n else top  # no next word after u[:n]
        if seed < shared:
            shared = seed
        floor = whole * shrink - fixed
        bar = shared * grow + floor
        j = lim - 1
        while j > 0:
            if own[j] > bar:
                if keys[j] > bar:
                    break
                j = lower[j]
                continue
            if j not in here:
                if upto[j] == prev:
                    cost = spelled[j] - log_i
                else:
                    cost = reduce(sub, logs[upto[j]:i], spelled[j])
                spelled[j], upto[j] = cost, i
                base = cost - escape1 - escape2  # bi("", u[j:i])
                score = ending[j] + base
                if score < shared:
                    shared = score
                    bar = score * grow + floor
            j -= 1
        novel[i] = shared
        if shared < top:
            top = shared
        ending[i] = top
        own[i] = key = top - whole
        k = prev
        while own[k] >= key:
            k = lower[k]
        lower[i] = k
        if key < least:
            least = key
        keys[i] = least

    walk = cells, records, novel, ending, scorer.spell, wholes, starts, uni, escape1, escape2

    def step(j, i, word, v, target):
        cells, records, novel, _, _, wholes, starts, uni, escape1, escape2 = walk
        base = uni(word) - escape2 if word else 0.0  # bi("", word)
        if word and j in starts[i]:  # a lexicon word: its cell's record
            k = records[i][j]
        else:  # every lexicon start adds base
            k = j
            for t, value in cells[j].items():
                if value + base == target:
                    k = t
                    break
        return k, cells[j].get(k), wholes[j] - escape1, 0.0, base, novel[j] + base

    def cell(t, j):
        _, _, _, ending, spell, _, _, _, escape1, escape2 = walk
        return ending[t] + (spell(t, j) - escape1 - escape2)

    return _walk_back(u, ending[n], starts, keys, own, lower, wholes, fixed, grow, step, cell)


def _search_trigram(scorer, u, limit, tables):
    n = len(u)
    uni, bi, tri, starts = scorer.uni, scorer.bi, scorer.tri, scorer.starts
    logs, spelled, upto = scorer.logs, scorer.spelled, scorer.upto
    escape1, escape2, escape3 = scorer.escapes
    grow, wholes, bigrams, trigrams = scorer.grow, scorer.wholes(), tables.bigrams, tables.trigrams
    shrink, fixed = grow - 2.0, scorer.head - escape1 - escape2
    # the novel scan's seed less a first word read alone: e3 and a rounding
    # margin over every score the two can merge at (module docstring)
    reach = len(tables.unigrams) + tables.s1
    offset = escape3 + (grow - 1.0) * (wholes[n] + fixed - escape1 - escape3
                                       + (math.log(reach) if reach else 0.0))
    # Pair (j, i) stands for the readings of u[:i] in two or more words
    # whose last word is u[j:i].  For a lexicon word u[j:i], j < limit[i],
    # cells[i][j] = (best, rest, split): best is the best of those readings;
    # split maps each k whose u[k:j], u[j:i] is a seen bigram to the best
    # reading ending in those two words, and rest is the best over every
    # other k, after which every next word v adds tri("", u[j:i], v).
    # novel[i] is the best pair (j, i), j >= 1, whose last word u[j:i] is
    # outside the lexicon; ending[i] is the best pair (j, i) over every
    # j >= 1; firsts[i] scores u[:i] as the first word; keys[i]: the least
    # key up to i; own[i], lower[i]: i's own key and skip link (module
    # docstring).
    cells, keys, least = [{}], [_INF] * (n + 1), _INF
    own, lower = [-_INF] * (n + 1), [0] * (n + 1)
    novel, ending, firsts = [_INF] * (n + 1), [_INF] * (n + 1), [_INF] * (n + 1)
    for prev, log_i in enumerate(logs):
        i = prev + 1
        here, lim, whole = starts[i], limit[i], wholes[i]
        shared = _INF
        if lim:
            if 0 in here:
                firsts[i] = uni(here[0])
                if i == n:  # no next word: u read whole seeds the last scan
                    shared = firsts[i]
            else:  # u[:i] alone outside the lexicon seeds the scan
                firsts[i] = shared = whole - escape1
                if i < n:
                    shared += offset
        floor = whole * shrink - fixed
        bar = shared * grow + floor
        j = lim - 1
        while j > 0:
            if own[j] > bar:
                if keys[j] > bar:
                    break
                j = lower[j]
                continue
            if j not in here:
                if upto[j] == prev:
                    cost = spelled[j] - log_i
                else:
                    cost = reduce(sub, logs[upto[j]:i], spelled[j])
                spelled[j], upto[j] = cost, i
                base = cost - escape1 - escape2  # bi("", u[j:i])
                added = base - escape3  # tri("", "", u[j:i])
                # base after the first word alone, added after two or more
                late = ending[j] + added
                opening = firsts[j] + base
                top = opening if opening < late else late
                if top < shared:
                    shared = top
                    bar = top * grow + floor
            j -= 1
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
        late = overall - escape3
        own[i] = key = (firsts[i] if firsts[i] < late else late) - whole
        k = prev
        while own[k] >= key:
            k = lower[k]
        lower[i] = k
        if key < least:
            least = key
        keys[i] = least

    walk = (cells, novel, ending, firsts, scorer.spell, starts, uni, bi, tri, trigrams,
            escape1, escape2, escape3)

    def step(j, i, word, v, target):
        cells, novel, _, firsts, _, starts, uni, bi, tri, trigrams, _, escape2, escape3 = walk
        # for the last word (None) a start's value is its best reading, u[t:j] last
        pair = cells[i][j][2] if word and j in cells[i] else {}
        base = uni(word) - escape2 if word else 0.0
        added = base - escape3 if word else 0.0
        # v's term after any history that forms no seen trigram with it
        other = bi(word, v) - escape3 if v else 0.0
        opening = firsts[j] + base
        others = novel[j] + added
        before, here = starts[j], cells[j]
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
            if value + (tri(prev, word, v) if (prev, word, v) in trigrams else other) == target:
                return t, value, opening, added, other, others + other
        return j, None, opening, added, other, others + other

    def cell(t, j):
        _, _, ending, firsts, spell, _, _, _, _, _, escape1, escape2, escape3 = walk
        base = spell(t, j) - escape1 - escape2
        late = ending[t] + (base - escape3)
        opening = firsts[t] + base
        return opening if opening < late else late

    score = firsts[n] if firsts[n] < ending[n] else ending[n]
    return _walk_back(u, score, starts, keys, own, lower, wholes, fixed, grow, step, cell)


def _walk_back(u, score, starts, keys, own, lower, wholes, fixed, grow, step, cell):
    """The winning path's words and the best score, ties broken as above.

    step(j, i, word, v, target) gives, for the word u[j:i] with next word
    v, whose reading scores target, (k, found, opening, added, shared,
    bound): k is the first stored lexicon start of the word before whose
    reading reaches target, found that reading's value, the best ending in
    u[k:j], u[j:i], and (j, None) where none reaches.  Any other start
    t > 0 has the value cell(t, j) + added, the one-word reading opening,
    and reaches that plus shared; bound lies between target and the least
    of those reaches, and is that least where novel[j] is exact (module
    docstring).  step(n, None, None, None, score) picks the last word, with
    terms of 0.0.  cell(t, j) recomputes a novel cell with the forward
    pass's expression; at or past the start bound that is no reading at
    all, but such a t never decides: the start chosen lies before it, and
    only the first to reach the score is taken.  keys, own, lower, wholes,
    fixed = h - E and grow serve the key stop and the jumps.  The helpers
    read the search's tables from one tuple, `walk`, that holds neither of
    them: closing over the tables makes them slower cell variables, and a
    helper in the tuple a reference cycle.  A word whose score no start
    reaches, which only a wrong bound can leave, raises RuntimeError.
    """
    target, j, out = score, len(u), []
    i = word = v = None
    while j:
        k, found, opening, added, shared, bound = step(j, i, word, v, target)
        if bound == target:
            before = starts[j]
            if 0 not in before and opening + shared == target:
                k, found = 0, opening
            else:  # from the right, jumping, down to the key stop
                bar = (target * grow - added - shared) * grow + wholes[j] * (grow - 2.0) - fixed
                t = k - 1
                while t > 0:
                    if own[t] > bar:
                        if keys[t] > bar:
                            break
                        t = lower[t]
                        continue
                    if t not in before:
                        value = cell(t, j) + added
                        if value + shared == target:
                            k, found = t, value
                    t -= 1
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
