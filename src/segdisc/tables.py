"""Lexicon, n-gram and phoneme frequency tables.

The unigram table doubles as the lexicon.  The count sum per order is
maintained incrementally, and the distinct keys per order are the length of
its table, so both are free to read.  Phoneme counts start from one
pseudo-count on every symbol including the end-of-word sentinel, which
keeps every relative frequency positive from the first utterance on; the
uniform mode simply leaves them there.
"""

from __future__ import annotations

from enum import Enum

from .phoneme import SENTINEL, default_inventory


class PhonemeMode(str, Enum):
    """How phoneme frequencies are learned from committed words.

    UNIFORM: never updated; frequencies stay at their initial uniform
        values.
    LEXICON: a word's phonemes (plus one sentinel) are counted once, when
        the word first enters the lexicon.
    SPEECH: every committed word token contributes its phonemes (plus one
        sentinel), familiar or not.
    """

    UNIFORM = "uniform"
    LEXICON = "lexicon"
    SPEECH = "speech"


class CountTables:
    """Unigram/bigram/trigram/phoneme counts with cached count sums.

    An instance is owned by a single learning run; nothing here is safe
    for concurrent mutation.  `trie` is the lexicon as a tree of nested
    dicts: each node maps a phoneme to its child, and a node whose path
    spells a lexicon word holds that word under the key SENTINEL, the
    end-of-word symbol, which no phoneme step can reach.  A new word w adds
    at most len(w) nodes, so it costs O(len w) time and memory; the scorer
    walks an utterance along it.  A trie is as deep as its longest word, so
    nothing may recurse over it: `==`, `repr`, `copy.deepcopy` and `pickle`
    of a trie hit the recursion limit once a word is long enough, while
    CPython frees nested dicts through its trashcan, so dropping one is
    safe.  `score_cache` holds the tables' one back-off chain, which
    `estimator` builds on first use and refreshes in place on the first
    read after each commit, and which both `segment` and `word_score` read;
    `commit` leaves it alone.
    """

    __slots__ = ("inventory", "unigrams", "bigrams", "trigrams", "phonemes",
                 "phoneme_total", "s1", "s2", "s3", "trie", "score_cache")

    def __init__(self):
        self.inventory = inventory = default_inventory()
        self.unigrams: dict[str, int] = {}
        self.bigrams: dict[tuple[str, str], int] = {}
        self.trigrams: dict[tuple[str, str, str], int] = {}
        self.phonemes: dict[str, int] = {ch: 1 for ch in inventory.symbols}
        self.phonemes[SENTINEL] = 1
        self.phoneme_total = len(self.phonemes)
        self.s1 = self.s2 = self.s3 = 0
        self.trie: dict = {}
        self.score_cache = None

    # distinct bigrams and trigrams, read by perfbench's tables.*_types metrics
    n2 = property(lambda self: len(self.bigrams))
    n3 = property(lambda self: len(self.trigrams))

    def commit(self, words, mode: PhonemeMode = PhonemeMode.LEXICON) -> None:
        """Learn one utterance's words.

        Every token bumps its unigram count; adjacent pairs and triples
        bump bigram and trigram counts.  N-grams never span utterance
        boundaries.  Phoneme counts move according to `mode`, a PhonemeMode
        or its value, else ValueError.  Words must be non-empty, which also
        keeps "" out of the lexicon, and spelled from the inventory, else
        UnknownPhoneme; a rejected call counts nothing.
        """
        if type(mode) is not PhonemeMode:
            mode = PhonemeMode(mode)
        words = tuple(words)
        if not words:
            raise ValueError("cannot commit an empty segmentation")
        if "" in words:
            raise ValueError("cannot commit an empty word")
        unigrams = self.unigrams
        for w in words:
            if w not in unigrams:  # lexicon words were checked on entry
                self.inventory.check(w)
        novel = []
        for w in words:
            count = unigrams.get(w, 0)
            if count == 0:
                novel.append(w)
                node = self.trie
                for ch in w:
                    node = node.setdefault(ch, {})
                node[SENTINEL] = w
            unigrams[w] = count + 1
        self.s1 += len(words)
        if len(words) >= 2:
            bigrams = self.bigrams
            for pair in zip(words, words[1:]):
                bigrams[pair] = bigrams.get(pair, 0) + 1
            self.s2 += len(words) - 1
        if len(words) >= 3:
            trigrams = self.trigrams
            for triple in zip(words, words[1:], words[2:]):
                trigrams[triple] = trigrams.get(triple, 0) + 1
            self.s3 += len(words) - 2
        if mode is PhonemeMode.LEXICON:
            for w in novel:
                self._count_phonemes(w)
        elif mode is PhonemeMode.SPEECH:
            for w in words:
                self._count_phonemes(w)

    def _count_phonemes(self, word: str) -> None:
        phonemes = self.phonemes
        for ch in word:
            phonemes[ch] += 1
        phonemes[SENTINEL] += 1
        self.phoneme_total += len(word) + 1
