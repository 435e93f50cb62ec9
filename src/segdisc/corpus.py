"""Reference corpora: loading, permutation and train/test splitting.

A corpus file is plain text, one utterance per line, words separated by
exactly one space, every character drawn from the phoneme alphabet.  The
same file serves as the segmentation reference; the unsegmented input
stream is recovered by deleting the spaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .phoneme import parse_utterance


class CorpusError(ValueError):
    """A malformed corpus line, with its 1-based line number."""

    def __init__(self, line_no: int, reason: object):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class Utterance:
    """Reference word sequence plus the boundary-free phoneme stream."""

    words: tuple[str, ...]
    raw: str

    @classmethod
    def from_words(cls, words) -> "Utterance":
        words = tuple(words)
        return cls(words, "".join(words))


@dataclass(frozen=True)
class Corpus:
    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def __getitem__(self, index) -> Utterance:
        return self.utterances[index]

    def lexicon(self) -> set[str]:
        """All distinct reference words."""
        return {w for u in self.utterances for w in u.words}


def load_corpus(path) -> Corpus:
    """Read a reference corpus, preserving utterance order.

    Empty lines are rejected rather than skipped so that transcription
    problems surface early.  All parse errors are wrapped in CorpusError
    with the offending line number.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    utterances = []
    # bytes.splitlines breaks at \n, \r and \r\n, as text mode does; each
    # line is decoded on its own so a bad byte is reported with its line
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            words = parse_utterance(line.decode("ascii"))
        except ValueError as exc:
            raise CorpusError(line_no, exc) from exc
        utterances.append(Utterance.from_words(words))
    if not utterances:
        raise CorpusError(0, "corpus file is empty")
    return Corpus(tuple(utterances))


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back out in the one-utterance-per-line format."""
    with open(path, "w", encoding="ascii") as handle:
        for u in corpus.utterances:
            handle.write(" ".join(u.words) + "\n")


def permute(corpus: Corpus, seed: int) -> Corpus:
    """Deterministic Fisher-Yates shuffle of utterance order.

    Uses random.Random(seed), CPython's Mersenne Twister, whose shuffle is
    stable across platforms and versions, so a (corpus, seed) pair always
    produces the same ordering.
    """
    items = list(corpus.utterances)
    random.Random(seed).shuffle(items)
    return Corpus(tuple(items))


def split_at(corpus: Corpus, n_train: int) -> tuple[Corpus, Corpus]:
    """First n_train utterances for training, the remainder for testing."""
    if not 0 <= n_train <= len(corpus.utterances):
        raise ValueError(f"cannot reserve {n_train} of {len(corpus.utterances)} utterances")
    return (Corpus(corpus.utterances[:n_train]),
            Corpus(corpus.utterances[n_train:]))

