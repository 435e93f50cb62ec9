import itertools
import random

import pytest

from segdisc import (InfeasibleBoundaryCount, MismatchedUtterance,
                     Segmentation, audit_lexicon, random_baseline,
                     score_blocks, score_utterance)


def seg(text):
    return Segmentation.from_words(text.split())


# --- single utterance --------------------------------------------------------

def test_perfect_prediction():
    assert score_utterance(seg("k&n yu fid It"), ["k&n", "yu", "fid", "It"]) == (4, 4, 4)


def test_dog_house_split_scores_three_of_five():
    predicted = seg("yu want D6 dOg hQs")
    reference = ["yu", "want", "D6", "dOghQs"]
    assert score_utterance(predicted, reference) == (3, 5, 4)


def test_fused_word_scores_zero():
    assert score_utterance(seg("D&mbrItIS"), ["D&m", "brItIS"]) == (0, 1, 2)


def test_string_identity_is_not_enough():
    # "a" as a token exists in both, but in non-matching spans
    predicted = seg("ab a")
    reference = ["a", "ba"]
    assert score_utterance(predicted, reference) == (0, 2, 2)


def test_mismatched_streams_rejected():
    with pytest.raises(MismatchedUtterance):
        score_utterance(seg("tu mi"), ["tu", "mi", "tu"])


def test_correct_bounded_by_both_sides():
    rng = random.Random(8)
    for _ in range(200):
        u = "".join(rng.choices("ab", k=rng.randint(1, 10)))
        n = len(u)
        ref_bounds = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        pred_bounds = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        reference = Segmentation.from_boundaries(u, ref_bounds).words
        predicted = Segmentation.from_boundaries(u, pred_bounds)
        c, p, r = score_utterance(predicted, reference)
        assert 0 <= c <= min(p, r)


def test_span_count_matches_a_membership_scan(sample_corpus):
    def scan_count(predicted, reference):
        ends = list(itertools.accumulate(len(w) for w in reference))
        reference_spans = set(zip([0] + ends, ends))
        ends = list(itertools.accumulate(len(w) for w in predicted.words))
        correct = sum(1 for span in zip([0] + ends, ends) if span in reference_spans)
        return correct, len(predicted.words), len(reference)

    rng = random.Random(11)
    for _ in range(20):
        for utterance in sample_corpus:
            n = len(utterance.raw)
            bounds = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            predicted = Segmentation.from_boundaries(utterance.raw, bounds)
            assert (score_utterance(predicted, utterance.words)
                    == scan_count(predicted, utterance.words))


# --- lexicon audit -----------------------------------------------------------

def test_audit_lexicon_partition():
    audit = audit_lexicon({"tu", "mi", "zz"}, {"tu", "mi", "lUk"})
    assert audit.correct == 2
    assert audit.incorrect == 1
    assert audit.correct + audit.incorrect == len(audit.learned)


# --- blocks ------------------------------------------------------------------

def test_all_correct_block():
    pairs = [(seg("tu mi"), ["tu", "mi"]), (seg("lUk"), ["lUk"])]
    blocks = score_blocks(pairs, 500, {"tu", "mi", "lUk"})
    assert len(blocks) == 1
    assert blocks[0].precision == 100.0
    assert blocks[0].recall == 100.0
    assert blocks[0].lexicon_precision == 100.0
    assert blocks[0].utterances == 2


def test_block_count_ceiling_division():
    pairs = [(seg("tu"), ["tu"])] * 9790
    blocks = score_blocks(pairs, 500, {"tu"})
    assert len(blocks) == 20
    assert blocks[-1].utterances == 9790 - 19 * 500  # partial final block
    assert [b.block_index for b in blocks] == list(range(20))


def test_block_size_none_is_single_block():
    pairs = [(seg("tu"), ["tu"])] * 7
    blocks = score_blocks(pairs, None, {"tu"})
    assert len(blocks) == 1
    assert blocks[0].utterances == 7


def test_precision_recall_are_token_weighted():
    pairs = [
        (seg("yu want D6 dOg hQs"), ["yu", "want", "D6", "dOghQs"]),  # 3/5, 3/4
        (seg("tu"), ["tu"]),                                          # 1/1, 1/1
    ]
    blocks = score_blocks(pairs, None, {"yu", "want", "D6", "dOghQs", "tu"})
    assert blocks[0].precision == pytest.approx(100 * 4 / 6)
    assert blocks[0].recall == pytest.approx(100 * 4 / 5)


def test_lexicon_precision_cumulative_across_blocks():
    pairs = [
        (seg("tu"), ["tu"]),      # learned {tu}: 1/1
        (seg("zz"), ["z", "z"]),  # learned {tu, zz}: 1/2
    ]
    blocks = score_blocks(pairs, 1, {"tu", "z"})
    assert blocks[0].lexicon_precision == 100.0
    assert blocks[1].lexicon_precision == 50.0


def test_lexicon_precision_depends_only_on_learned_set():
    pairs = [(seg("tu"), ["tu"]), (seg("tu"), ["tu"]), (seg("zz"), ["z", "z"])]
    blocks = score_blocks(pairs, None, {"tu", "z"})
    assert blocks[0].lexicon_precision == 50.0  # {tu, zz} vs reference


def test_initial_lexicon_seeds_audit():
    pairs = [(seg("tu"), ["tu"])]
    blocks = score_blocks(pairs, None, {"tu"}, initial_lexicon={"zz"})
    assert blocks[0].lexicon_precision == 50.0


def test_seen_reference_only_flag():
    pairs = [(seg("tu"), ["tu"]), (seg("lUk"), ["lUk"])]
    blocks = score_blocks(pairs, 1, {"tu", "lUk", "mi"}, seen_reference_only=True)
    # after the first utterance only "tu" is a seen reference word
    assert blocks[0].lexicon_precision == 100.0
    assert blocks[1].lexicon_precision == 100.0


def test_seen_reference_only_counts_initial_lexicon_as_seen():
    # the trained words are reference words: learning them again later is
    # not spurious just because the test stream has not shown them yet
    pairs = [(seg("lUk"), ["lUk"]), (seg("tu mi"), ["tu", "mi"])]
    blocks = score_blocks(pairs, 1, {"tu", "mi", "lUk"},
                          initial_lexicon={"tu", "mi"}, seen_reference_only=True)
    assert [b.lexicon_precision for b in blocks] == [100.0, 100.0]


@pytest.mark.parametrize("seen_only", [False, True])
@pytest.mark.parametrize("initial", [None, {"tu", "zz"}])
def test_lexicon_precision_matches_a_full_audit_per_block(seen_only, initial):
    # score_blocks keeps its count of genuine words as it goes; auditing
    # the whole learned set at the end of every block must agree
    rng = random.Random(f"audit-{seen_only}-{initial is None}")
    vocab = ["tu", "mi", "lUk", "bIg", "D*"]
    reference_lexicon = {"tu", "mi", "lUk", "bIg"}
    pairs = []
    for _ in range(200):
        ref = rng.choices(vocab, k=rng.randint(1, 4))
        raw = "".join(ref)
        cuts = rng.sample(range(1, len(raw)), rng.randint(0, min(3, len(raw) - 1)))
        pairs.append((Segmentation.from_boundaries(raw, sorted(cuts)), ref))
    blocks = score_blocks(pairs, 7, reference_lexicon, initial_lexicon=initial,
                          seen_reference_only=seen_only)
    learned = set(initial or ())
    seen = set(learned)
    expected = []
    for count, (predicted, ref) in enumerate(pairs, 1):
        learned.update(predicted.words)
        seen.update(ref)
        if count % 7 == 0 or count == len(pairs):
            audit = audit_lexicon(learned, seen if seen_only else reference_lexicon)
            expected.append(100.0 * audit.correct / len(audit.learned))
    assert [b.lexicon_precision for b in blocks] == expected


def test_block_scores_invariant_to_order_within_block():
    base = [
        (seg("tu mi"), ["tumi"]),
        (seg("tu"), ["tu"]),
        (seg("lUk D*"), ["lUk", "D*"]),
        (seg("ab ba"), ["a", "bba"]),
        (seg("mi"), ["mi"]),
        (seg("h* brAS"), ["h*brAS"]),
    ]
    reference_lexicon = {"tu", "mi", "lUk", "D*", "h*brAS", "tumi", "a", "bba"}
    expected = score_blocks(base, None, reference_lexicon)[0]
    for shuffled in itertools.permutations(base):
        assert score_blocks(shuffled, None, reference_lexicon)[0] == expected


def test_empty_stream_yields_no_blocks():
    assert score_blocks([], 10, set()) == []


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        score_blocks([], 0, set())


# --- random baseline ---------------------------------------------------------

def test_baseline_zero_boundaries():
    assert random_baseline("abcd", 0, random.Random(1)).words == ("abcd",)


def test_baseline_all_boundaries():
    assert random_baseline("abcd", 3, random.Random(1)).words == ("a", "b", "c", "d")


def test_baseline_exact_count_always():
    rng = random.Random(17)
    for _ in range(300):
        u = "".join(rng.choices("ab", k=rng.randint(1, 12)))
        want = rng.randint(0, len(u) - 1)
        out = random_baseline(u, want, rng)
        assert len(out.boundaries) == want
        assert out.phonemes == u


def test_baseline_infeasible_counts():
    with pytest.raises(InfeasibleBoundaryCount):
        random_baseline("abcd", 4, random.Random(1))
    with pytest.raises(InfeasibleBoundaryCount):
        random_baseline("abcd", -1, random.Random(1))


def test_baseline_rejects_int_seed():
    with pytest.raises(AttributeError):
        random_baseline("abcd", 1, 1)


def test_baseline_positions_uniform_chi_square():
    # one boundary in "abcd": three slots, expected uniform; dof=2 and the
    # 1% critical value is 9.210
    rng = random.Random(2024)
    draws = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(draws):
        counts[random_baseline("abcd", 1, rng).boundaries[0]] += 1
    expected = draws / 3
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 9.210, counts
