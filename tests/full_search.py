"""The boundary searches without pruning, kept as a test oracle for long lines.

These are the searches of `segdisc.segmenter` as of commit cbf1f0e, before
any cutoff: every column visits every start below the start bound, the
order-2 and order-3 searches keep a dense cell per (start, end) pair with
the shared history states the production searches keep, and `_walk_back`
scans every start of a word from the left with no stop test.  Each search
reads `spelling_costs`, its own n(n+1)/2 matrix of word costs built with
the production scorer's sequential subtractions, so every score keeps its
bits; lexicon words are scored through the chain's uni, bi and tri.  They
take O(n^2) memory and time and serve lines of up to a few thousand
phonemes, where `dense_search`, O(n^3) and O(n^4), stops at ~60.
`tests/test_full_search.py` compares them with `segment`.
"""

import math

_INF = math.inf


def spelling_costs(scorer):
    """costs[i][j] = uni(u[j:i]) for 0 <= j < i <= n.

    Each novel word's spelling score is extended by one phoneme term per
    column, the subtractions the scorer's windows make in the same order,
    and less the unigram escape term; a lexicon word takes uni's score.
    """
    escape1 = scorer.escapes[0]
    acc = []
    costs = [[]]
    for i, log_i in enumerate(scorer.logs, 1):
        acc = [value - log_i for value in acc]
        acc.append(scorer.head - log_i)
        col = [value - escape1 for value in acc]
        for j, word in scorer.starts[i].items():
            col[j] = scorer.uni(word)
        costs.append(col)
    return costs


def search(scorer, u, limit, order, bigram_counts):
    """The words and score of the order's search; limit is the start bound."""
    costs = spelling_costs(scorer)
    if order == 1:
        return _search_unigram(costs, u, limit)
    if order == 2:
        return _search_bigram(scorer, costs, u, limit)
    return _search_trigram(scorer, costs, u, limit, bigram_counts)


def _search_unigram(costs, u, limit):
    n = len(u)
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


def _search_bigram(scorer, costs, u, limit):
    n = len(u)
    bi = scorer.bi
    starts = scorer.starts
    escape2 = scorer.escapes[1]
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

    def step(j, i, word, v):
        base = costs[i][j] - escape2  # bi("", word)
        return (lambda t: state[t][j]), (lambda prev: bi(prev, word)), base, novel[j] + base

    return _walk_back(u, [state[j][n] for j in range(n)], starts, step)


def _search_trigram(scorer, costs, u, limit, bigram_counts):
    n = len(u)
    bi = scorer.bi
    tri = scorer.tri
    starts = scorer.starts
    escape2, escape3 = scorer.escapes[1:]
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

    def step(j, i, word, v):
        pair = split[j][i]
        base = costs[i][j] - escape2
        added = base - escape3
        opening = firsts[j] + base
        other = tri("", word, v) if v else 0.0  # v's term after an unseen bigram
        others = novel[j] + added
        if 0 not in starts[j] and opening < others:
            others = opening
        seen = (word, v) in bigram_counts
        return ((lambda t: pair[t] if t in pair else (best[t][j] + added if t else opening)),
                (lambda prev: tri(prev, word, v) if seen else other), other, others + other)

    return _walk_back(u, [firsts[n]] + [best[j][n] for j in range(1, n)], starts, step)


def _walk_back(u, last, starts, step):
    """The winning path's words and score, ties broken as a strict `<` scan
    from the left breaks them.

    last[j] scores the best reading whose last word is u[j:], j = 0 the
    whole utterance.  step(j, i, word, v) gives, for the cell u[j:i] with
    next word v (None at the end), (value, term, shared, bound): a lexicon
    start t with word prev reaches value(t) + term(prev), any other start
    value(t) + shared, bound is the least of those, and the walk moves on
    to value(k) for the chosen k, the leftmost start that reaches the
    cell's score.
    """
    score = target = min(last)
    j = last.index(score)
    i = len(u)
    v = None
    out = []
    while j:
        word = u[j:i]
        value, term, shared, bound = step(j, i, word, v)
        before = starts[j]
        k = j
        for t, prev in before.items():
            if value(t) + term(prev) == target:
                k = t
                break
        if bound == target:
            t = 0
            while t < k and (t in before or value(t) + shared != target):
                t += 1
            k = t
        out.append(word)
        target = value(k)
        i, j, v = j, k, word
    out.append(u[:i])
    out.reverse()
    return out, score
