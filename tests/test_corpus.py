import pytest

from segdisc import (Corpus, CorpusError, Utterance, load_corpus, permute,
                     save_corpus, split_at)


def test_load_sample_corpus_fixture(sample_corpus):
    assert len(sample_corpus) == 20
    assert sample_corpus[0].words == ("hQ", "sIli", "6v", "mi")
    assert sample_corpus[0].raw == "hQsIli6vmi"
    assert sample_corpus[3].raw == "tu"


def test_raw_is_concatenation(sample_corpus):
    for utterance in sample_corpus:
        assert utterance.raw == "".join(utterance.words)


def test_single_line_corpus(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("tu\n")
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert corpus[0].raw == "tu"
    assert corpus[0].words == ("tu",)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tu\nmi x$z\n")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert err.value.line_no == 2


def test_load_rejects_empty_lines(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("tu\n\nmi\n")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert err.value.line_no == 2


def test_load_reports_line_of_non_ascii_byte(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"tu\nmi D\xc3\xa6z\n")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert err.value.line_no == 2
    assert "can't decode byte 0xc3 in position 4" in str(err.value)


def test_load_accepts_crlf_and_cr_line_ends(tmp_path):
    path = tmp_path / "dos.txt"
    path.write_bytes(b"hQ sIli\r\ntu\rmi\r\n")
    corpus = load_corpus(path)
    assert [u.words for u in corpus] == [("hQ", "sIli"), ("tu",), ("mi",)]


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_save_load_round_trip(sample_corpus, sample_path, tmp_path):
    path = tmp_path / "copy.txt"
    save_corpus(sample_corpus, path)
    assert path.read_bytes() == sample_path.read_bytes()
    assert load_corpus(path) == sample_corpus


def test_permute_deterministic(sample_corpus):
    assert permute(sample_corpus, 42) == permute(sample_corpus, 42)
    assert permute(sample_corpus, 42) != permute(sample_corpus, 43)


def test_permute_preserves_multiset(sample_corpus):
    by_words = lambda u: u.words
    for seed in range(10):
        shuffled = permute(sample_corpus, seed)
        assert sorted(shuffled.utterances, key=by_words) == sorted(sample_corpus.utterances, key=by_words)


def test_permute_single_utterance_is_identity():
    corpus = Corpus((Utterance.from_words(["tu"]),))
    assert permute(corpus, 7) == corpus


def test_split_fraction_zero(sample_corpus):
    train, test = split_at(sample_corpus, 0)
    assert len(train) == 0
    assert test == sample_corpus


def test_split_doubled_corpus_fully_trained_protocol(sample_corpus):
    doubled = Corpus(sample_corpus.utterances + sample_corpus.utterances)
    train, test = split_at(doubled, len(sample_corpus))
    assert train == sample_corpus
    assert test == sample_corpus


def test_split_at_counts(sample_corpus):
    for k in range(len(sample_corpus) + 1):
        train, test = split_at(sample_corpus, k)
        assert len(train) == k
        assert train.utterances + test.utterances == sample_corpus.utterances
    with pytest.raises(ValueError):
        split_at(sample_corpus, len(sample_corpus) + 1)


def test_lexicon_is_distinct_words(sample_corpus):
    lexicon = sample_corpus.lexicon()
    assert "lUk" in lexicon and "tu" in lexicon
    assert len(lexicon) == len({w for u in sample_corpus for w in u.words})
