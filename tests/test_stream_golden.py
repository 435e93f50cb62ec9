"""Golden digests of the incremental segmentation stream on synthetic data.

tests/fixtures/synthetic308.txt is the benchmark's synthetic corpus at
seed 11, cut to 300 utterances, followed by its eight stress utterances of
8 to 64 phonemes, written once by

    PYTHONPATH=src:perfbench python -c "import corpusgen; \\
        c = corpusgen.generate(11, utterances=300, stress_per_length=2); \\
        print(*(' '.join(w) for w in c.utterances + tuple(w for w in c.stress \\
                if sum(map(len, w)) <= 64)), sep='\\n')"

Its words are random syllable strings, so it pins behaviour, never
accuracy.  Each case runs the incremental learner over the fixture with its
boundaries removed, at one order, phoneme mode and vowel setting, and
keeps two digests of one line per utterance: "words" of the chosen words
alone, and "words_and_scores" of the words and the float.hex of their
score.  So a change to any segmentation or to any bit of a score fails
here, and the words are compared first, so a failure says which of the two
changed.  After an intended change, regenerate the digests with

    PYTHONPATH=src python tests/test_stream_golden.py

and review the diff of tests/fixtures/golden_stream.json.

The same cases also check, with no stored data, that no chosen reading
has two adjacent words outside the lexicon.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "synthetic308.txt"
GOLDEN = FIXTURES / "golden_stream.json"
CASES = [(order, mode, vowel) for order in (1, 2, 3)
         for mode in ("uniform", "lexicon", "speech") for vowel in (False, True)]


def _name(order, mode, vowel):
    return f"o{order}-{mode}{'-vowel' if vowel else ''}"


def stream_digests(order, mode, vowel):
    """sha256 of the learner's words, and of its words and score bits, one
    line per utterance."""
    from segdisc import CountTables, LearnerConfig, PhonemeMode, segment

    cfg = LearnerConfig(order=order, phoneme_mode=PhonemeMode(mode), require_vowel=vowel)
    tables = CountTables()
    words = hashlib.sha256()
    scored = hashlib.sha256()
    for line in CORPUS.read_text().splitlines():
        seg, score = segment(tables, line.replace(" ", ""), cfg)
        tables.commit(seg.words, cfg.phoneme_mode)
        text = " ".join(seg.words)
        words.update(f"{text}\n".encode())
        scored.update(f"{text}\t{score.hex()}\n".encode())
    return {"words": words.hexdigest(), "words_and_scores": scored.hexdigest()}


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_name(*case) for case in CASES)


@pytest.mark.parametrize("order,mode,vowel", CASES, ids=[_name(*c) for c in CASES])
def test_stream_matches_golden(order, mode, vowel):
    expected = json.loads(GOLDEN.read_text())[_name(order, mode, vowel)]
    got = stream_digests(order, mode, vowel)
    assert got["words"] == expected["words"], "different words"
    assert got["words_and_scores"] == expected["words_and_scores"], \
        "same words, different score bits"


@pytest.mark.parametrize("order,mode,vowel", CASES, ids=[_name(*c) for c in CASES])
def test_no_reading_has_two_adjacent_novel_words(order, mode, vowel):
    """Merging two adjacent words outside the lexicon into one saves
    h - e1 (- e2 - e3) and scores every later word the same, where
    h = -ln(f#/(1 - f#)) > 0 while the sentinel frequency f# is below 1/2
    and every escape log e_k <= 0; the margin is far above the rounding of
    a score.  So a best reading never has two such words side by side, under
    the vowel rule too, since the merged word keeps both vowels."""
    from segdisc import CountTables, LearnerConfig, PhonemeMode, segment

    cfg = LearnerConfig(order=order, phoneme_mode=PhonemeMode(mode), require_vowel=vowel)
    tables = CountTables()
    for line in CORPUS.read_text().splitlines():
        seg, _ = segment(tables, line.replace(" ", ""), cfg)
        novel = [w not in tables.unigrams for w in seg.words]
        assert not any(a and b for a, b in zip(novel, novel[1:])), seg.words
        tables.commit(seg.words, cfg.phoneme_mode)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    digests = {_name(*case): stream_digests(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
