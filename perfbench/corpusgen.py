"""Deterministic, paper-shaped synthetic corpus for the benchmark.

The shape follows the paper's child-directed speech corpus: 9790
utterances, about 3.4 words per utterance, about 2.9 phonemes per word
and a Zipfian lexicon of roughly 1.3-1.4k word types.  The real corpus is
not redistributable, so this one is for timing only: its words are random
syllable strings over the package's 50-symbol alphabet, far easier to
segment than speech, and its precision or recall must never be reported
as accuracy.

Everything is drawn from one `random.Random(seed)`, never from set or
dict iteration order, so a seed gives a byte-identical corpus in every
process.  To keep timings comparable across seeds, the shape itself is
fixed: the histogram of words per utterance and of syllables per lexicon
word are quantized from fixed distributions and only their order, the
phonemes and the token draws depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from segdisc.phoneme import default_inventory

CORPUS_UTTERANCES = 9790
#: Truncated geometric word count per utterance; p = 0.2725 gives a mean of
#: 3.4 words with the cap at 12.
WORDS_P = 0.2725
MAX_WORDS = 12
#: Candidate lexicon size and Zipf exponent; about 1.35k of these occur in
#: 33k tokens.
LEXICON_CANDIDATES = 1350
ZIPF_EXPONENT = 1.0
#: Seed of the generator that fixes the shape: the lexicon's syllable
#: templates and ranks, and the ranks of the stress set's words.
SHAPE_SEED = 1999
#: Rank key is the syllable count plus uniform jitter of this half-width.
RANK_JITTER = 1.0
#: Share of lexicon words with 1, 2 and 3 syllables.
SYLLABLE_SHARES = (0.55, 0.35, 0.10)
#: Long-utterance stress set: exact lengths in phonemes, STRESS_PER_LENGTH
#: utterances each.  One 100-phoneme utterance takes about 1.5 s at order 3
#: with the dense search, so the set stops there.
STRESS_LENGTHS = (8, 16, 32, 64, 100)
STRESS_PER_LENGTH = 9


@dataclass(frozen=True)
class SyntheticCorpus:
    """Corpus utterances and the long-utterance stress set, as word tuples."""

    utterances: tuple[tuple[str, ...], ...]
    stress: tuple[tuple[str, ...], ...]

    def text(self) -> str:
        """The corpus in the package's one-utterance-per-line format."""
        return "".join(" ".join(words) + "\n" for words in self.utterances)

    def shape(self) -> dict[str, float]:
        """Tokens, types, phonemes per utterance and maximum length."""
        lengths = [sum(map(len, words)) for words in self.utterances]
        return {
            "utterances": len(self.utterances),
            "tokens": sum(len(words) for words in self.utterances),
            "types": len({w for words in self.utterances for w in words}),
            "phonemes": sum(lengths),
            "phonemes_per_utt": sum(lengths) / len(lengths),
            "max_phonemes": max(lengths),
        }


def _quantize(shares, total: int) -> list[int]:
    """Integer counts summing to `total`, by largest remainder."""
    scale = total / sum(shares)
    raw = [s * scale for s in shares]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _lexicon(rng: random.Random, shape_rng: random.Random, size: int) -> list[str]:
    """Distinct words in rank order, fewest syllables first with jitter, so
    frequent words are short.

    The syllable templates and their ranks come from `shape_rng`, so the
    length of the word at each rank is the same for every seed; `rng` only
    picks the phonemes.
    """
    inventory = default_inventory()
    vowels = [s for s in inventory.symbols if inventory.is_vowel(s)]
    consonants = [s for s in inventory.symbols if not inventory.is_vowel(s)]

    syllable_counts = []
    for count, share in zip((1, 2, 3), _quantize(SYLLABLE_SHARES, size)):
        syllable_counts += [count] * share
    templates = []
    for count in syllable_counts:
        template = tuple((shape_rng.choices((0, 1, 2), (0.3, 0.6, 0.1))[0],
                          shape_rng.choice((0, 1)))
                         for _ in range(count))
        if template == ((0, 0),):
            # there are too few one-vowel words to draw them distinct
            template = ((1, 0),)
        templates.append((count + shape_rng.uniform(-RANK_JITTER, RANK_JITTER), template))
    templates.sort()

    def fill(template) -> str:
        return "".join("".join(rng.choice(consonants) for _ in range(onset))
                       + rng.choice(vowels)
                       + "".join(rng.choice(consonants) for _ in range(coda))
                       for onset, coda in template)

    words: list[str] = []
    seen: set[str] = set()
    for _, template in templates:
        word = fill(template)
        while word in seen:
            word = fill(template)
        seen.add(word)
        words.append(word)
    # single vowels at the end of the ranking guarantee that any remaining
    # length of a stress utterance can be filled
    words += [v for v in vowels[:4] if v not in seen]
    return words


def generate(seed: int, utterances: int = CORPUS_UTTERANCES,
             stress_per_length: int = STRESS_PER_LENGTH) -> SyntheticCorpus:
    """The synthetic corpus and stress set for `seed`."""
    rng = random.Random(seed)
    shape_rng = random.Random(SHAPE_SEED)
    lexicon = _lexicon(rng, shape_rng, LEXICON_CANDIDATES)
    cum_weights = list(accumulate(1.0 / r ** ZIPF_EXPONENT
                                  for r in range(1, len(lexicon) + 1)))

    word_shares = [WORDS_P * (1 - WORDS_P) ** (n - 1) for n in range(1, MAX_WORDS + 1)]
    word_counts = []
    for n, count in enumerate(_quantize(word_shares, utterances), start=1):
        word_counts += [n] * count
    rng.shuffle(word_counts)
    tokens = rng.choices(lexicon, cum_weights=cum_weights, k=sum(word_counts))
    lines = []
    pos = 0
    for n in word_counts:
        lines.append(tuple(tokens[pos:pos + n]))
        pos += n

    # the stress set is a fixed sequence of ranks, so its word lengths and
    # frequencies are the same for every seed and only the phonemes differ
    lengths = [len(w) for w in lexicon]
    stress = []
    for length in STRESS_LENGTHS:
        for _ in range(stress_per_length):
            ranks: list[int] = []
            remaining = length
            while remaining:
                rank = shape_rng.choices(range(len(lexicon)), cum_weights=cum_weights)[0]
                if lengths[rank] > remaining:
                    rank = shape_rng.choice([r for r, n in enumerate(lengths) if n <= remaining])
                ranks.append(rank)
                remaining -= lengths[rank]
            stress.append(tuple(lexicon[r] for r in ranks))
    return SyntheticCorpus(tuple(lines), tuple(stress))
