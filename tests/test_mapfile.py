"""Parsing and serialization of the plain-text map format."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeinv.catalog import catalog, get_fixture, random_map
from treeinv.errors import MapFormatError
from treeinv.mapfile import MAX_D, MAX_N, load_map, parse_map, save_map, serialize_map
from treeinv.tensormap import PolyMap, SymTensor, build_H
from treeinv.poly import Poly


def test_parse_triangular_example():
    text = "map t\nn 2\nd 3\nw 1 2 2 2 6/1\nend"
    pmap = parse_map(text)
    assert pmap.name == "t"
    assert pmap.n == 2
    assert pmap.d == 3
    assert pmap.tensor == get_fixture("triangular-2-3").tensor


def test_parse_empty_entry_list_is_identity_map():
    pmap = parse_map("map zero\nn 2\nd 2\nend")
    assert pmap.tensor.is_zero()
    for h in build_H(pmap):
        assert h.is_zero()


def test_index_out_of_range_reports_line():
    text = "map bad\nn 2\nd 3\nw 1 3 1 1 1/2\nend"
    with pytest.raises(MapFormatError) as err:
        parse_map(text)
    assert err.value.line == 4
    assert "outside [1, 2]" in str(err.value)


def test_comments_blanks_and_integer_coeffs():
    text = """
# leading comment
map c
n 1
d 2

w 1 1 1 3   # trailing comment
end
"""
    pmap = parse_map(text)
    assert pmap.tensor.get(0, (0, 0)) == Fraction(3)


def test_duplicate_entries_summed_and_cancelled():
    base = "map s\nn 2\nd 2\n"
    summed = parse_map(base + "w 1 1 2 1/2\nw 1 2 1 1/2\nend")
    assert summed.tensor.get(0, (0, 1)) == Fraction(1)
    gone = parse_map(base + "w 2 1 1 5\nw 2 1 1 -5\nend")
    assert gone.tensor.is_zero()


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("n 2\nd 2\nend", 1, "map"),
        ("map a\nmap b\nn 1\nd 2\nend", 2, "duplicate"),
        ("map a\nn 1\nn 1\nd 2\nend", 3, "duplicate"),
        ("map a\nn 0\nd 2\nend", 2, "n"),
        ("map a\nn 1\nd 1\nend", 3, ">= 2"),
        ("map a\nn 1\nd x\nend", 3, "d"),
        ("map a\nn ²\nd 2\nend\n", 2, "n"),
        ("map a\nn 1\nd ²\nend\n", 3, "d"),
        pytest.param("map a\nn " + "1" * 5000 + "\nd 2\nend\n", 2, "n", id="n-past-int-digit-limit"),
        ("map a\nn 1\nd 2\nw 1 1 1\nend", 4, "fields"),
        ("map a\nn 1\nd 2\nw 1 1 1 1/0\nend", 4, "rational"),
        ("map a\nn 1\nd 2\nw 1 1 0 2\nend", 4, "outside"),
        ("map a\nn 2\nd 2\nw +1 ２ 1 1\nend", 4, "index"),
        ("map a\nn 12\nd 2\nw 1_1 1 1 1\nend", 4, "index"),
        ("map a\nn 1\nd 2\nw 1 1 1 1_0\nend", 4, "rational"),
        ("map a\nn 1\nd 2\nw 1 1 1 ３/２\nend", 4, "rational"),
        ("map a\nn ２\nd 2\nend\n", 2, "n"),
        ("map a\nn 65\nd 2\nend\n", 2, "MAX_N = 64"),
        ("map a\nn 99999999999\nd 2\nend\n", 2, "MAX_N = 64"),
        ("map a\nn 1\nd 33\nend\n", 3, "MAX_D = 32"),
        pytest.param("map a\nn 1\nd " + "9" * 5000 + "\nend\n", 3, "MAX_D", id="d-past-int-digit-limit"),
        ("map a\nn 1\nd 2\nfoo 1\nend", 4, "directive"),
        ("map a\nn 1\nd 2\nend\nw 1 1 1 1", 5, "after end"),
        ("map a\nn 1\nd 2\nw 1 1 1 1", 0, "missing end"),
        ("map a\nn 1\nw 1 1 1 1\nend", 3, "w"),
    ],
)
def test_malformed_inputs_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(MapFormatError) as err:
        parse_map(text)
    assert err.value.line == lineno
    assert fragment in str(err.value)


def test_header_limits_are_inclusive():
    pmap = parse_map(f"map a\nn {MAX_N}\nd {MAX_D}\nend\n")
    assert (pmap.n, pmap.d) == (MAX_N, MAX_D)


def test_serialize_parse_round_trip_catalog():
    for pmap in catalog():
        text = serialize_map(pmap)
        back = parse_map(text)
        assert back.tensor == pmap.tensor
        assert back.name == pmap.name
        # canonical form is a fixed point of the round trip
        assert serialize_map(back) == text


def test_serialized_coefficients_always_p_over_q():
    t = SymTensor(1, 2, {(0, (0, 0)): Fraction(3)})
    text = serialize_map(PolyMap(t, name="three"))
    assert "w 1 1 1 3/1" in text


def test_load_save_files(tmp_path):
    pmap = get_fixture("m2zero-2-2")
    path = tmp_path / "m2.map"
    save_map(pmap, path)
    loaded = load_map(path)
    assert loaded.tensor == pmap.tensor
    assert loaded.name == pmap.name


def test_parse_rejects_two_blocks():
    one = serialize_map(get_fixture("univar-2"))
    with pytest.raises(MapFormatError):
        parse_map(one + "\n" + one)


_NON_ASCII_DIGITS = ["２", "٣", "²", "१", "⅔", "\U0001d7d9"]


def _mutate(rng: random.Random, text: str) -> str:
    """One random edit of map text: a token deleted, duplicated, swapped or
    spiked with a non-ASCII digit, or a line truncated."""
    lines = text.split("\n")
    row = rng.randrange(len(lines))
    tokens = lines[row].split(" ")
    op = rng.choice(["delete", "duplicate", "swap", "swap-lines", "non-ascii", "truncate"])
    t = rng.randrange(len(tokens))
    if op == "delete":
        del tokens[t]
    elif op == "duplicate":
        tokens.insert(t, tokens[t])
    elif op == "swap":
        u = rng.randrange(len(tokens))
        tokens[t], tokens[u] = tokens[u], tokens[t]
    elif op == "swap-lines":
        other = rng.randrange(len(lines))
        lines[row], lines[other] = lines[other], lines[row]
        return "\n".join(lines)
    elif op == "non-ascii":
        tok = tokens[t]
        at = rng.randint(0, len(tok))
        cut = at + rng.randint(0, 1)
        tokens[t] = tok[:at] + rng.choice(_NON_ASCII_DIGITS) + tok[cut:]
    else:
        joined = " ".join(tokens)
        lines[row] = joined[: rng.randint(0, len(joined))]
        return "\n".join(lines)
    lines[row] = " ".join(tokens)
    return "\n".join(lines)


def test_fuzzed_map_text_raises_only_map_format_error():
    rng = random.Random(2718)
    texts = [serialize_map(p) for p in catalog()]
    texts.append(serialize_map(random_map(3, 2, seed=9)))
    texts.append("# header comment\nmap c\nn 2\nd 2\nw 1 1 2 -3/4  # trailing\n\nw 2 2 2 5\nend\n")
    for trial in range(3000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        try:
            pmap = parse_map(text)
        except MapFormatError:
            continue
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc} on {text!r}")
        assert isinstance(pmap, PolyMap)
