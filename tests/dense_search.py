"""The dense boundary searches, kept as a test oracle.

The order-2 and order-3 searches are the ones `segdisc.segmenter` used
before it collapsed every history outside the lexicon into one state per
position.  They visit every cell, O(n^3) at order 2 and O(n^4) at order 3,
keep a back-pointer per cell, and resolve ties by a strict `<` scan.  All
three slice every word from the utterance and score it through the chain's
uni, bi and tri, so none reads the scorer's cost table or lexicon starts.
The production searches must return the same words and the same score
bits; `tests/test_search_oracle.py` checks that through its `dense_segment`,
which calls these searches directly, with its own vowel test on each word
in place of the production start bound, and compares the result with
`segment`'s.
"""

import math

_INF = math.inf


def _search_unigram(scorer, u, allowed):
    n = len(u)
    uni = scorer.uni
    best = [0.0] + [_INF] * n
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i):
            if allowed is not None and not allowed(j, i):
                continue
            cand = best[j] + uni(u[j:i])
            if cand < best[i]:
                best[i] = cand
                back[i] = j
    out = []
    i = n
    while i > 0:
        out.append(u[back[i]:i])
        i = back[i]
    out.reverse()
    return out, best[n]


def _search_bigram(scorer, u, allowed):
    n = len(u)
    uni = scorer.uni
    bi = scorer.bi
    # state[j][i]: best score for u[:i] whose last word is u[j:i];
    # j == 0 is the single-word reading, scored as a first word.
    state = [[_INF] * (n + 1) for _ in range(n)]
    back = [[-1] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        if allowed is None or allowed(0, i):
            state[0][i] = uni(u[:i])
        for j in range(1, i):
            if allowed is not None and not allowed(j, i):
                continue
            word = u[j:i]
            score = _INF
            split = -1
            for k in range(j):
                prefix = state[k][j]
                if prefix == _INF:
                    continue
                cand = prefix + bi(u[k:j], word)
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
        out.append(u[j:i])
        i, j = j, back[j][i]
    out.append(u[:i])
    out.reverse()
    return out, score


def _search_trigram(scorer, u, allowed, bigram_counts):
    n = len(u)
    uni = scorer.uni
    bi = scorer.bi
    tri = scorer.tri
    # state[(k, j, i)]: best score for u[:i] ending in words u[k:j], u[j:i].
    # k == 0 means u[k:j] is the first word (unigram + bigram scored base).
    state: dict[tuple[int, int, int], float] = {}
    back: dict[tuple[int, int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            if allowed is not None and not allowed(j, i):
                continue
            word = u[j:i]
            if allowed is None or allowed(0, j):
                state[(0, j, i)] = uni(u[:j]) + bi(u[:j], word)
                back[(0, j, i)] = -1
            for k in range(1, j):
                if allowed is not None and not allowed(k, j):
                    continue
                prev1 = u[k:j]
                score = _INF
                split = -1
                if (prev1, word) in bigram_counts:
                    for t in range(k):
                        prefix = state.get((t, k, j))
                        if prefix is None:
                            continue
                        cand = prefix + tri(u[t:k], prev1, word)
                        if cand < score:
                            score = cand
                            split = t
                else:
                    # a trigram x, prev1, word is only ever counted along
                    # with the bigram prev1, word, so with that pair unseen
                    # the added score is the same for every third-back word
                    added = tri(u[:k], prev1, word)
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
    score = uni(u[:n]) if allowed is None or allowed(0, n) else _INF
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
    out = [u[j:n]]
    i = n
    while True:
        out.append(u[k:j])
        t = back[(k, j, i)]
        if t < 0:
            break
        k, j, i = t, k, j
    out.reverse()
    return out, score
