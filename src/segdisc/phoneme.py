"""Phoneme alphabet for ASCII-transcribed child speech.

Each phoneme is a single ASCII character; a word is an unbroken run of
phoneme characters and an utterance is a line of words separated by single
spaces.  The alphabet has consonants, vowels and r-colored vowels; the
learner reads only whether a symbol is a vowel of either kind.  Note that
'#' is an ordinary phoneme here (the vowel of "arm"); the end-of-word
sentinel used by the spelling model is a separate reserved symbol outside
the alphabet.
"""

from __future__ import annotations

from functools import lru_cache

#: End-of-word marker for the phoneme spelling model.  Kept outside the
#: ASCII alphabet because '#' itself transcribes the vowel of "arm".
SENTINEL = "¶"


# One character per phoneme.  The less obvious codes: 'N' sing, 'T' thin,
# 'D' than, 'S' ship, 'Z' pleasure, 'c' chip, 'G' gel, 'w' want, 'W' when,
# 'L' bottle, 'M' rhythm, '~' button.
CONSONANTS = "pbmtdnkgNfvTDszSZhcGlrywWLM~"

# 'I' bit, 'E' bet, '&' bat, 'A' but, 'a' hot, 'O' law, 'U' put, '6' her,
# 'i' beet, 'e' bait, 'u' boot, 'o' boat, '9' buy, 'Q' bout, '7' boy.
VOWELS = "IE&AaOU6ieuo9Q7"

# '3' bird, 'R' butter, '#' arm, '%' horn, '*' air, '(' ear, ')' lure.
VOWELS_R = "3R#%*()"


class UnknownPhoneme(ValueError):
    """A transcription character outside the phoneme alphabet."""

    def __init__(self, char: str, position: int):
        super().__init__(f"unknown phoneme {char!r} at position {position}")
        self.char = char
        self.position = position


class EmptyToken(ValueError):
    """An empty word token: consecutive, leading or trailing spaces."""

    def __init__(self, position: int):
        super().__init__(f"empty word token at position {position}")
        self.position = position


class PhonemeInventory:
    """The fixed transcription alphabet and its vowels."""

    def __init__(self) -> None:
        self.symbols: tuple[str, ...] = tuple(CONSONANTS + VOWELS + VOWELS_R)
        self.symbol_set = frozenset(self.symbols)
        self.vowels = frozenset(VOWELS + VOWELS_R)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbol_set

    def __len__(self) -> int:
        return len(self.symbols)

    def check(self, text: str, offset: int = 0) -> None:
        """Raise UnknownPhoneme for the first symbol of `text` outside the
        alphabet, the end-of-word sentinel included; positions count from
        `offset`."""
        if not self.symbol_set.issuperset(text):
            position = next(p for p, ch in enumerate(text) if ch not in self.symbol_set)
            raise UnknownPhoneme(text[position], offset + position)

    def is_vowel(self, symbol: str) -> bool:
        """True for plain vowels and r-colored vowels."""
        return symbol in self.vowels


@lru_cache(maxsize=1)
def default_inventory() -> PhonemeInventory:
    return PhonemeInventory()


def parse_utterance(line: str) -> list[str]:
    """Split one corpus line into words, validating every character.

    The trailing newline, if present, is dropped.  Words must be separated
    by exactly one space, so joining the result with single spaces
    reproduces the input line.

    Raises UnknownPhoneme for a character outside the alphabet, EmptyToken
    for doubled, leading or trailing spaces and for an empty line.
    """
    inventory = default_inventory()
    line = line.removesuffix("\n")
    words = line.split(" ")
    if "" in words or not inventory.symbol_set.issuperset(line.replace(" ", "")):
        # the line is malformed: find the first fault, left to right
        pos = 0
        for token in words:
            if not token:
                raise EmptyToken(pos)
            inventory.check(token, pos)
            pos += len(token) + 1
    return words


def is_vowel_bearing(word: str) -> bool:
    """True if the word contains at least one vowel or r-colored vowel.

    Syllabic consonants ('L', 'M', '~') do not count.
    """
    inventory = default_inventory()
    return any(inventory.is_vowel(ch) for ch in word)
