"""The CLI's JSON writer against its oracle, ``json.dumps(obj, indent=2)``.

``cli._json_text`` replaces the stdlib's pure-Python indented encoder on
every ``--format json`` path, so it must give the same bytes for every
payload the CLI builds and for any tree of the types it accepts.
"""

import collections
import enum
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pigouq.cli as cli
from test_golden_outputs import CASES, corpus_records


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


JSON_CASES = sorted(name for name in CASES if name.endswith(".json"))


@pytest.mark.parametrize("name", JSON_CASES)
def test_every_json_payload_matches_the_oracle(name, monkeypatch, capsys):
    writer, payloads = cli._json_text, []

    def spy(obj):
        payloads.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_json_text", spy)
    assert cli.main(list(CASES[name])) == 0
    (obj,) = payloads
    assert writer(obj) == oracle(obj)
    assert capsys.readouterr().out == oracle(obj) + "\n"


def test_every_corpus_record_matches_the_oracle():
    count = 0
    for record in corpus_records():
        assert cli._json_text(record) == oracle(record)
        count += 1
    assert count > 2000


class Text(str):
    pass


class Count(enum.IntEnum):
    ONE = 1


class Items(list):
    pass


class Pair(tuple):
    pass


#: Every kind of escape json writes (quote, backslash, the short escapes,
#: other controls, non-ASCII, an astral character as a surrogate pair,
#: lone surrogates) and a few characters it writes as they are.
CHARS = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\uffff",
         "\U0001f600", "\ud800", "\udfff", "a", "Z", "0", " "]
FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, 0.1, -1.5,
          1.7976931348623157e308, math.nan, math.inf, -math.inf]
INTS = [0, -1, 7, 2**63, -(2**64) - 1, 10**40, True, False, Count.ONE]


def random_text(rng):
    text = "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))
    return Text(text) if rng.random() < 0.1 else text


def random_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-(10**20), 10**20)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return np.float64(rng.choice(FLOATS + [rng.random()]))
    if kind == 4:
        return None
    return rng.choice([{}, [], (), collections.OrderedDict(), Items(), Pair()])


def random_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        return random_leaf(rng)
    items = [random_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    kind = rng.randrange(6)
    if kind < 2:
        return {random_text(rng): item for item in items}
    if kind == 2:
        return collections.OrderedDict((random_text(rng), item) for item in items)
    if kind == 3:
        return tuple(items)
    if kind == 4:
        return rng.choice([Items, Pair])(items)
    return items


def test_random_trees_match_the_oracle():
    rng = random.Random(20240)
    for _ in range(2000):
        tree = random_tree(rng)
        assert cli._json_text(tree) == oracle(tree)


@pytest.mark.parametrize("value", [Fraction(1, 2), np.int64(3), {1, 2}, b"x", 1j, object()])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._json_text({"a": [value]})


@pytest.mark.parametrize("key", [1, None, 1.5, True, (1, 2)])
def test_non_str_keys_raise_type_error(key):
    """``json.dumps`` would print the scalar keys as strings; no payload has one."""
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text([{"a": 1, key: 2}])
