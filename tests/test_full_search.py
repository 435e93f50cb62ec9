"""The production searches against the pruning-free searches on long lines.

`full_search` keeps the searches as they were before any cutoff: every
start of every column, a dense cell per pair and a walk with no stop test.
On lines of hundreds of phonemes, where the key stop ends the column
scans and the walk's scans early, the skip links jump past starts that
lose, and each start's running spelling catches up across the columns that
skipped it, the production searches must return the same words and the
same score bits.  The tables are learned incrementally from a prefix of
the stream, under the same settings as the search.  Two short near-ties
check the rounding margin of the key stop at orders 2 and 3.
"""

import math
import random
from pathlib import Path

import pytest

import full_search
from segdisc import (CountTables, LearnerConfig, PhonemeMode, default_inventory, segment,
                     word_score)
from segdisc.estimator import UtteranceScorer
from segdisc.segmenter import process_utterance

STREAM = Path(__file__).parent / "fixtures" / "synthetic308.txt"
PREFIX = 200  # utterances learned before the long lines are searched


def long_lines(mixed_line):
    """Lines of corpus words at n = 300 and 1,000, of random phonemes at
    n = 300 and 800, of corpus words with 6 random phonemes every 150
    (n = 450), and conftest's mixed line of corpus words and random chunks
    (n = 1,000)."""
    text = STREAM.read_text().replace("\n", "").replace(" ", "")
    symbols = default_inventory().symbols
    rng = random.Random(150)
    mixed = "".join(text[k:k + 144] + "".join(rng.choices(symbols, k=6))
                    for k in range(0, 450, 144))[:450]
    return [text[:300], text[:1000], "".join(random.Random(300).choices(symbols, k=300)),
            "".join(random.Random(800).choices(symbols, k=800)), mixed, mixed_line(1000)]


def start_bound(tables, u, require_vowel):
    """limit[i]: a word u[j:i] may start at any j < limit[i]; under the
    vowel rule one past the last vowel before i, and 1 at the end of an
    utterance without a vowel, which is read whole."""
    n = len(u)
    if not require_vowel:
        return range(n + 1)
    limit = [0] * (n + 1)
    for i in range(1, n + 1):
        limit[i] = i if tables.inventory.is_vowel(u[i - 1]) else limit[i - 1]
    limit[n] = limit[n] or 1
    return limit


def assert_same_as_full_search(tables, u, cfg):
    seg, score = segment(tables, u, cfg)
    words, ref_score = full_search.search(UtteranceScorer(tables, u), u,
                                          start_bound(tables, u, cfg.require_vowel),
                                          cfg.order, tables.bigrams)
    assert (seg.words, score.hex()) == (tuple(words), ref_score.hex()), (u[:20], len(u), cfg)
    return seg


@pytest.mark.parametrize("require_vowel", [False, True])
@pytest.mark.parametrize("mode", list(PhonemeMode))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_long_lines_match_the_full_search(order, mode, require_vowel, mixed_line):
    cfg = LearnerConfig(order=order, phoneme_mode=mode, require_vowel=require_vowel)
    tables = CountTables()
    for line in STREAM.read_text().splitlines()[:PREFIX]:
        process_utterance(tables, line.replace(" ", ""), cfg)
    for u in long_lines(mixed_line):
        assert_same_as_full_search(tables, u, cfg)


@pytest.mark.parametrize("order, shape", [
    pytest.param(order, shape, id=str(order) if shape == "w" else f"{order}-{shape}")
    for shape in ("w", "w w", "w tail") for order in (1, 2, 3)])
def test_line_equal_to_a_lexicon_word_matches_the_full_search(order, shape):
    # w is one word committed once.  Read alone, the last column's novel
    # scan starts from w read whole at every order; followed by w or by 10
    # random phonemes, every split of w ties in real arithmetic.  w alone
    # takes the bare order as its id, so its test ids stay stable
    symbols = default_inventory().symbols
    w = "".join(random.Random(2000).choices(symbols, k=300))
    tail = "".join(random.Random(10).choices(symbols, k=10))
    words = {"w": (w,), "w w": (w, w), "w tail": (w, tail)}[shape]
    tables = CountTables()
    tables.commit([w])
    seg = assert_same_as_full_search(tables, "".join(words), LearnerConfig(order=order))
    assert seg.words == words


# Found by a random search over small lexicons.  In each, the best reading
# scores one unit in the last place below another, and a key stop without
# the margin `grow` ends the walk's scan before a start the best reading
# needs, so the walk raises.
MARGIN_CASES = {
    "order2": (2, PhonemeMode.SPEECH, [
        ["Itb", "kp", "kp", "kEk"], ["kEk", "EII", "EII"], ["kEk", "IEcd", "Itb"],
        ["Itb", "Iacb", "Iacb"], ["kEk"], ["kEk", "Iacb"], ["Itb", "kp"],
        ["EII", "EII", "IEcd", "Itb"], ["kp", "kp", "kp", "Itb"], ["EII"], ["Iacb", "kEk", "EII"],
        ["EII", "Itb", "kp", "EII"], ["Itb", "kEk", "Iacb", "EII"], ["kEk", "Iacb", "Iacb", "kp"],
        ["Iacb", "kp", "Itb", "IEcd"], ["IEcd", "EII", "EII", "Iacb"], ["Iacb", "kEk", "IEcd", "EII"],
        ["kEk", "EII"], ["EII", "IEcd", "Iacb"], ["Itb", "EII", "IEcd"],
        ["kEk", "EII", "IEcd", "Iacb"], ["kEk", "Itb", "kEk"], ["Iacb", "IEcd"],
        ["IEcd", "EII", "Iacb"], ["EII", "kEk", "Iacb", "Iacb"], ["Iacb", "Iacb", "IEcd", "IEcd"],
        ["Itb", "kp"], ["kp", "EII"]],
        ("bdEIkb", "IEcd", "tIEcdE"), ("bdEIkbIEcdt", "IEcd", "E")),
    "order3": (3, PhonemeMode.LEXICON, [
        ["dpE", "IE"], ["dc", "bdt"], ["IE"], ["bdt"], ["dc", "bdt"], ["IE", "dc"], ["dpE", "IE"],
        ["IE", "bdt", "dpE"], ["dc", "bdt", "bdt"]],
        ("Ibb", "dpE", "dcIEIIpccdpEbEddbIdp"), ("IbbdpEdcIEIIpcc", "dpE", "bEddbIdp")),
}


@pytest.mark.parametrize("case", list(MARGIN_CASES))
def test_scan_bar_keeps_its_rounding_margin(case):
    order, mode, utterances, best, rival = MARGIN_CASES[case]
    cfg = LearnerConfig(order=order, phoneme_mode=mode, require_vowel=True)
    tables = CountTables()
    for words in utterances:
        tables.commit(words, mode)
    seg = assert_same_as_full_search(tables, "".join(best), cfg)
    assert seg.words == best
    score = sum(word_score(tables, best[:k], w, order) for k, w in enumerate(best))
    other = sum(word_score(tables, rival[:k], w, order) for k, w in enumerate(rival))
    assert math.nextafter(score, math.inf) == other
