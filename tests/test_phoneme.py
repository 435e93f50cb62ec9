import pytest
from hypothesis import given, strategies as st

from segdisc import (SENTINEL, EmptyToken, UnknownPhoneme, default_inventory,
                     is_vowel_bearing, parse_utterance)
from segdisc.phoneme import CONSONANTS, VOWELS, VOWELS_R

INVENTORY = default_inventory()


def test_inventory_sizes():
    assert len(CONSONANTS) == 28
    assert len(VOWELS) == 15
    assert len(VOWELS_R) == 7
    assert len(INVENTORY) == 50
    assert len(set(INVENTORY.symbols)) == 50


def test_inventory_classes_total():
    # every symbol is a consonant, a vowel or an r-colored vowel, and only
    # the last two count as vowels
    assert sorted(CONSONANTS + VOWELS + VOWELS_R) == sorted(INVENTORY.symbols)
    for symbol in INVENTORY.symbols:
        assert symbol in INVENTORY
        assert INVENTORY.is_vowel(symbol) == (symbol not in CONSONANTS)
    assert INVENTORY.vowels == set(VOWELS + VOWELS_R)
    assert not INVENTORY.is_vowel(SENTINEL)


def test_sentinel_outside_alphabet():
    assert SENTINEL not in INVENTORY
    assert not SENTINEL.isascii()
    # '#' is the vowel of "arm", not the sentinel
    assert "#" in VOWELS_R and INVENTORY.is_vowel("#")
    assert SENTINEL != "#"


def test_parse_simple_line():
    words = parse_utterance("hQ sIli 6v mi")
    assert words == ["hQ", "sIli", "6v", "mi"]
    assert sum(len(w) for w in words) == 10


def test_parse_single_word():
    assert parse_utterance("tu") == ["tu"]


def test_parse_strips_one_trailing_newline():
    assert parse_utterance("tu\n") == ["tu"]


def test_parse_hash_is_a_phoneme():
    words = parse_utterance("&nd WAt # Doz")
    assert words == ["&nd", "WAt", "#", "Doz"]
    assert "#" in VOWELS_R and INVENTORY.is_vowel("#")


def test_parse_rejects_unknown_character():
    with pytest.raises(UnknownPhoneme) as err:
        parse_utterance("a$b")
    assert err.value.char == "$"
    assert err.value.position == 1


def test_parse_rejects_unknown_character_in_later_word():
    with pytest.raises(UnknownPhoneme) as err:
        parse_utterance("tu a!z")
    assert err.value.char == "!"
    assert err.value.position == 4


def test_parse_rejects_consecutive_spaces():
    with pytest.raises(EmptyToken):
        parse_utterance("tu  mi")


def test_parse_rejects_leading_trailing_space_and_empty():
    for bad in (" tu", "tu ", "", "\n"):
        with pytest.raises(EmptyToken):
            parse_utterance(bad)


def test_sentinel_never_parses():
    with pytest.raises(UnknownPhoneme):
        parse_utterance(f"a{SENTINEL}b")


@given(st.lists(st.text(alphabet=sorted(INVENTORY.symbols), min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_parse_round_trips(words):
    line = " ".join(words)
    assert parse_utterance(line) == words
    assert " ".join(parse_utterance(line + "\n")) == line


def scan_parse(line):
    """The left-to-right token scan parse_utterance ran on every line."""
    line = line.removesuffix("\n")
    words = []
    pos = 0
    for token in line.split(" "):
        if not token:
            raise EmptyToken(pos)
        INVENTORY.check(token, pos)
        words.append(token)
        pos += len(token) + 1
    return words


def parse_outcome(parse, line):
    try:
        return parse(line)
    except (EmptyToken, UnknownPhoneme) as exc:
        return type(exc), exc.args


@given(st.text(alphabet=sorted(INVENTORY.symbols) + [" ", "\n", "\r", SENTINEL, "$"],
               max_size=24))
def test_parse_matches_the_token_scan(line):
    # same words, or the same exception at the same position
    assert parse_outcome(parse_utterance, line) == parse_outcome(scan_parse, line)


def test_every_ascii_char_parses_or_raises():
    for ch in map(chr, range(128)):
        if ch in INVENTORY:
            assert parse_utterance(ch) == [ch]
        else:
            with pytest.raises((UnknownPhoneme, EmptyToken)):
                parse_utterance(ch)


def test_vowel_bearing():
    assert is_vowel_bearing("lUk")
    assert not is_vowel_bearing("st")
    assert is_vowel_bearing("h*brAS")  # '*' is an r-colored vowel
    assert is_vowel_bearing("#")


def test_syllabic_consonants_not_vowel_bearing():
    # 'L', 'M' and '~' are classified as consonants
    assert not is_vowel_bearing("LM~")
