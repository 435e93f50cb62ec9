"""Scoring predicted segmentations against references.

A predicted word token counts as correct only when both its start and its
end coincide with a reference word's span (exact span match); string
equality alone would over-credit repeated short words.  score_utterance
counts them in one pass over cumulative offsets: the reference's
(start, end) spans go into a set, and each predicted word's span is looked
up as its running offset advances; a prediction equal to the reference
scores every word at once.  Precision and recall are percentages of
predicted and reference word tokens respectively, computed within scoring
blocks; lexicon precision is cumulative over every distinct word
predicted so far.

The random baseline is reproducible from its generator alone: each call
makes exactly one rng.sample over the internal positions 1..n-1, sorts
the draw and cuts the words there.  So a seeded random.Random gives the
same words and leaves the same state on every run, and the words are
those Segmentation.from_boundaries cuts at the drawn positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .segmenter import Segmentation


class MismatchedUtterance(ValueError):
    """Predicted and reference disagree on the raw phoneme string."""


class InfeasibleBoundaryCount(ValueError):
    """Requested boundary count cannot fit in the utterance."""


@dataclass(frozen=True)
class BlockScores:
    block_index: int
    utterances: int
    precision: float
    recall: float
    lexicon_precision: float


@dataclass(frozen=True)
class LexiconAudit:
    learned: frozenset[str]
    correct: int
    incorrect: int


def score_utterance(predicted: Segmentation, reference) -> tuple[int, int, int]:
    """(correct, predicted, reference) word token counts for one utterance."""
    reference = tuple(reference)
    if predicted.phonemes != "".join(reference):
        raise MismatchedUtterance(
            f"predicted stream {predicted.phonemes!r} does not match reference {' '.join(reference)!r}")
    words = predicted.words
    n = len(reference)
    if words == reference:
        return n, n, n
    spans = set()
    start = 0
    for w in reference:
        end = start + len(w)
        spans.add((start, end))
        start = end
    correct = start = 0
    for w in words:
        end = start + len(w)
        correct += (start, end) in spans
        start = end
    return correct, len(words), n


def audit_lexicon(learned, reference_lexicon) -> LexiconAudit:
    """Split a learned lexicon into genuine and spurious words."""
    learned = frozenset(learned)
    correct = sum(1 for w in learned if w in reference_lexicon)
    return LexiconAudit(learned, correct, len(learned) - correct)


def score_blocks(pairs, block_size, reference_lexicon, *,
                 initial_lexicon=None, seen_reference_only: bool = False) -> list[BlockScores]:
    """Score a stream of (predicted Segmentation, reference words) pairs.

    Precision and recall cover only the utterances inside each block of
    `block_size` consecutive utterances (block_size=None puts everything
    in one block; a final partial block is scored as-is and shows up with
    utterances < block_size).  Lexicon precision is cumulative over all
    words predicted so far, audited against `reference_lexicon`, or, with
    seen_reference_only, against only the reference words encountered so
    far.  `initial_lexicon` seeds the learned set, for runs that started
    with a trained lexicon; those reference words count as encountered.
    """
    if block_size is not None and block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    blocks: list[BlockScores] = []
    learned: set[str] = set(initial_lexicon) if initial_lexicon else set()
    # the initial lexicon is reference words already seen in training
    seen_reference = set(learned)
    target = seen_reference if seen_reference_only else reference_lexicon
    # audit_lexicon(learned, target).correct, kept as each set grows
    genuine = sum(1 for w in learned if w in target)
    correct = predicted = reference = in_block = 0

    def close_block():
        blocks.append(BlockScores(
            block_index=len(blocks),
            utterances=in_block,
            precision=100.0 * correct / predicted,
            recall=100.0 * correct / reference,
            lexicon_precision=100.0 * genuine / len(learned),
        ))

    for seg, ref_words in pairs:
        c, p, r = score_utterance(seg, ref_words)
        correct += c
        predicted += p
        reference += r
        in_block += 1
        for w in seg.words:
            if w not in learned:
                learned.add(w)
                genuine += w in target
        if seen_reference_only:
            for w in ref_words:
                if w not in seen_reference:
                    seen_reference.add(w)
                    genuine += w in learned
        if block_size is not None and in_block == block_size:
            close_block()
            correct = predicted = reference = in_block = 0
    if in_block:
        close_block()
    return blocks


def random_baseline(u: str, true_boundary_count: int, rng: random.Random) -> Segmentation:
    """Place the known number of boundaries uniformly at random.

    The baseline is told how many boundaries the utterance has, but not
    where; positions are drawn without replacement from the n-1 internal
    slots.
    """
    n = len(u)
    if not 0 <= true_boundary_count <= n - 1:
        raise InfeasibleBoundaryCount(
            f"{true_boundary_count} boundaries cannot fit in {n} phonemes")
    # sorted distinct draws from 1..n-1 are the valid boundaries that
    # from_boundaries would check, so cut the words here
    words = []
    start = 0
    for end in sorted(rng.sample(range(1, n), true_boundary_count)):
        words.append(u[start:end])
        start = end
    words.append(u[start:])
    return Segmentation(u, tuple(words))
