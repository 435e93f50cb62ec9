import os
import random
from pathlib import Path

import pytest

from segdisc import default_inventory, load_corpus

FIXTURES = Path(__file__).parent / "fixtures"

# The 9790-utterance phonemic corpus is not redistributable with this
# repository.  Point SEGDISC_CORPUS at a copy (or drop it at data/br-phono.txt
# under the repo root) to enable the corpus-conditional tests.
_CORPUS_CANDIDATES = [
    os.environ.get("SEGDISC_CORPUS"),
    str(Path(__file__).resolve().parent.parent / "data" / "br-phono.txt"),
]


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def full_corpus_path():
    for candidate in _CORPUS_CANDIDATES:
        if candidate and Path(candidate).is_file():
            return candidate
    return None


@pytest.fixture
def mixed_line():
    """mixed_line(n): n phonemes of tokens drawn by random.Random(34), each
    with probability 0.2 a word of synthetic308.txt (any, alike) and
    otherwise 1-12 random phonemes of the inventory."""
    words = sorted(set(fixture_path("synthetic308.txt").read_text().split()))
    symbols = default_inventory().symbols

    def line(n):
        rng, u = random.Random(34), ""
        while len(u) < n:
            u += (rng.choice(words) if rng.random() < 0.2
                  else "".join(rng.choices(symbols, k=rng.randint(1, 12))))
        return u[:n]
    return line


@pytest.fixture
def sample_path():
    return fixture_path("sample20.txt")


@pytest.fixture
def sample_corpus(sample_path):
    return load_corpus(sample_path)


@pytest.fixture
def full_corpus():
    path = full_corpus_path()
    if path is None:
        pytest.skip("phonemic corpus not supplied (set SEGDISC_CORPUS)")
    corpus = load_corpus(path)
    if len(corpus) != 9790:
        pytest.skip(f"supplied corpus has {len(corpus)} utterances, expected 9790")
    return corpus
