"""Round trips and mangled input for the set, parameter and frame syntaxes:
what is printed parses back to the same value, and a mangled text either
parses to a valid value or raises ValueError, never another exception."""

import random

import pytest

from conftest import random_element
from tensebench import symbolic as sym
from tensebench.frames import Frame, VertexId, frame_to_text, parse_frame
from tensebench.sparam import SParameter, parse_sparam
from test_random_params import PARAMS

SEED = 20211019
# the characters of all three syntaxes, and a few more
ALPHABET = "ASbarVDU(),+-0123456789 {}O\\=tailnoutbdfrmve\n#x."


def mangled(rng: random.Random, text: str) -> str:
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3) if chars else 0
        if edit == 0:
            chars.insert(at, rng.choice(ALPHABET))
        elif edit == 1:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


def parses_or_refuses(parse, text):
    """The parsed value, or None when parse raised ValueError; any other
    exception fails the test."""
    try:
        return parse(text)
    except ValueError:
        return None


def random_sparam(rng: random.Random) -> SParameter:
    bound = rng.randrange(3, 60, 2)
    explicit = frozenset(n for n in range(3, bound + 1, 2) if rng.random() < 0.5)
    return SParameter(explicit, bound, rng.random() < 0.5)


def random_frame(rng: random.Random) -> Frame:
    vertices = sorted({VertexId(rng.randint(-3, 3), rng.randint(1, 6))
                       for _ in range(rng.randint(1, 8))})
    edges = [(a, b) for a in vertices for b in vertices if rng.random() < 0.3]
    return Frame(vertices, edges)


@pytest.mark.parametrize("s", PARAMS, ids=str)
def test_display_parses_back(s):
    rng = random.Random(f"{SEED} display {s}")
    refused = 0
    for _ in range(20):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        text = sym.display(x)
        assert sym.parse_set(s, text) == x
        bent = parses_or_refuses(lambda t: sym.parse_set(s, t), mangled(rng, text))
        if bent is None:
            refused += 1
        else:
            assert sym.validate_canonical(bent)
    assert refused > 0


def test_parameters_print_and_parse_back():
    rng = random.Random(f"{SEED} sparam")
    refused = 0
    for _ in range(400):
        s = random_sparam(rng)
        assert parse_sparam(str(s)) == s
        assert parse_sparam(f"S = {s}") == s
        bent = parses_or_refuses(parse_sparam, mangled(rng, str(s)))
        if bent is None:
            refused += 1
        else:
            assert parse_sparam(str(bent)) == bent
    assert 50 < refused < 400


def test_frames_print_and_parse_back():
    rng = random.Random(f"{SEED} frame")
    refused = 0
    for _ in range(300):
        frame = random_frame(rng)
        text = frame_to_text(frame)
        assert frame_to_text(parse_frame(text)) == text
        assert parse_frame(text).edges() == frame.edges()
        bent = parses_or_refuses(parse_frame, mangled(rng, text))
        if bent is None:
            refused += 1
        else:
            assert frame_to_text(parse_frame(frame_to_text(bent))) == frame_to_text(bent)
    assert 50 < refused < 300
