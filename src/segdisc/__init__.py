"""Incremental word discovery in unsegmented phonemic utterance streams.

The learner reads utterances one at a time, finds the word segmentation
with the lowest negative log probability under a unigram, bigram or
trigram model with escape-mass back-off, commits it to its count tables
and moves on.  The harness module adds the command line front end and the
standard experiments (permutation averaging, training sweeps, fully
trained runs, lexicon growth and phoneme-mode comparisons).
"""

from .corpus import (Corpus, CorpusError, Utterance, load_corpus, permute,
                     save_corpus, split_at)
from .estimator import p_bigram, p_sigma, p_trigram, p_unigram, word_score
from .evaluation import (BlockScores, InfeasibleBoundaryCount, LexiconAudit,
                         MismatchedUtterance, audit_lexicon, random_baseline,
                         score_blocks, score_utterance)
from .phoneme import (SENTINEL, EmptyToken, PhonemeInventory, UnknownPhoneme,
                      default_inventory, is_vowel_bearing, parse_utterance)
from .segmenter import (LearnerConfig, Segmentation, process_utterance,
                        segment, train_utterance)
from .tables import CountTables, PhonemeMode

__version__ = "0.1.0"

__all__ = [
    "SENTINEL", "PhonemeInventory", "UnknownPhoneme",
    "EmptyToken", "default_inventory", "parse_utterance", "is_vowel_bearing",
    "Corpus", "CorpusError", "Utterance", "load_corpus",
    "save_corpus", "permute", "split_at",
    "CountTables", "PhonemeMode",
    "p_sigma", "p_unigram", "p_bigram", "p_trigram", "word_score",
    "LearnerConfig", "Segmentation", "segment", "process_utterance",
    "train_utterance",
    "BlockScores", "LexiconAudit", "MismatchedUtterance",
    "InfeasibleBoundaryCount", "audit_lexicon", "score_blocks",
    "score_utterance", "random_baseline",
    "__version__",
]
