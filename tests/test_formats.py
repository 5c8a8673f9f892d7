from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochroma import Hypergraph, RankedColoring
from lochroma.formats import (
    FormatError,
    format_cert,
    format_coloring,
    format_h3,
    parse_cert,
    parse_coloring,
    parse_h3,
    read_cert,
    read_coloring,
    read_h3,
    write_coloring,
    write_h3,
)


def test_h3_roundtrip(tmp_path):
    H = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    path = tmp_path / "a.h3"
    write_h3(path, H, comment="two edges")
    assert read_h3(path) == H


def test_h3_text_shape():
    H = Hypergraph(3, [(0, 1, 2)])
    assert format_h3(H) == "p h3 3 1\n1 2 3\n"


def test_h3_comments_ignored():
    text = "c hello\np h3 3 1\nc mid comment\n1 2 3\n"
    assert parse_h3(text).edges == ((0, 1, 2),)


def test_h3_header_missing():
    with pytest.raises(FormatError, match="header"):
        parse_h3("1 2 3\n")


def test_h3_edge_count_mismatch():
    with pytest.raises(FormatError, match="promises"):
        parse_h3("p h3 3 2\n1 2 3\n")


def test_h3_edge_order_canonicalized():
    text = "p h3 6 2\n4 5 6\n3 2 1\n"
    assert parse_h3(text).edges == ((0, 1, 2), (3, 4, 5))


@pytest.mark.parametrize(
    "body, match",
    [
        ("p h3 3 2\n1 2 3\n3 2 1\n", "line 3: duplicate edge 1"),
        ("p h3 3 1\n0 1 2\n", "out of range"),
        ("p h3 2 1\n1 2 3\n", "out of range"),
        ("p h3 3 1\n1 2 2\n", "repeated vertex"),
    ],
    ids=["duplicate", "id-zero", "id-above-n", "repeated-vertex"],
)
def test_read_h3_rejects_invalid_edges(tmp_path, body, match):
    path = tmp_path / "bad.h3"
    path.write_text(body)
    with pytest.raises(FormatError, match=match) as info:
        read_h3(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "parse, text, match",
    [
        (parse_h3, "1 2 3\n", "line 1: expected header 'p h3 <n> <m>'"),
        (parse_h3, "p h3 3\n", "line 1: expected header"),
        (parse_h3, "p h3 three 1\n", "line 1: bad header numbers"),
        (parse_h3, "p h3 -3 1\n", "line 1: negative size in header"),
        (parse_h3, "p h3 3 -1\n", "line 1: negative size in header"),
        (parse_h3, "p h3 3 1\n1 2\n", "line 2: expected three vertex ids"),
        (parse_h3, "p h3 3 1\n1 2 x\n", "line 2: bad vertex id"),
        (parse_h3, "", "missing 'p h3' header"),
        (parse_h3, "c only a comment\n", "missing 'p h3' header"),
        (parse_h3, "p h3 3 2\n1 2 3\n", "header promises 2 edges, file has 1"),
        (parse_coloring, "1\n", "line 1: expected '<vertex> <color>'"),
        (parse_coloring, "1 2 3\n", "line 1: expected '<vertex> <color>'"),
        (parse_coloring, "1 one\n", "line 1: bad number"),
        (parse_coloring, "0 1\n", "line 1: vertex ids are 1-indexed"),
        (parse_coloring, "1 1\n1 2\n", "line 2: vertex 1 assigned twice"),
        (parse_cert, "", "empty certificate"),
        (parse_cert, "2\n", "certificate header must be '<n\\+1> <d>'"),
        (parse_cert, "2 two\n", "bad certificate header"),
        (parse_cert, "0 1\n", "at least the special vector"),
        (parse_cert, "2 0\n", "at least the special vector"),
        (parse_cert, "2 2\n1 0\n", "expected 2 vector rows, found 1"),
        (parse_cert, "2 2\n1 0\n0\n", "row 3: expected 2 floats"),
        (parse_cert, "2 2\n1 0\n0 x\n", "row 3: bad float"),
    ],
)
def test_parse_errors(parse, text, match):
    with pytest.raises(FormatError, match=match):
        parse(text)


def test_format_cert_rejects_mismatched_shapes():
    with pytest.raises(FormatError, match="must be"):
        format_cert(np.zeros(3), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "read, body",
    [
        (read_h3, "p h3 3\n"),
        (read_coloring, "1\n"),
        (read_cert, "2\n"),
        (read_coloring, "1 \u00e9\n"),
    ],
    ids=["h3", "coloring", "cert", "non-ascii"],
)
def test_read_errors_name_the_path(tmp_path, read, body):
    path = tmp_path / "bad.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: ")


def test_coloring_roundtrip(tmp_path):
    c = RankedColoring({0: 1, 1: 2, 2: 1})
    path = tmp_path / "a.coloring"
    write_coloring(path, c)
    assert path.read_text() == "1 1\n2 2\n3 1\n"
    assert parse_coloring(path.read_text()) == c


def test_coloring_rejects_double_assignment():
    with pytest.raises(FormatError, match="twice"):
        parse_coloring("1 1\n1 2\n")


def test_cert_roundtrip():
    vstar = np.array([1.0, 0.0, 0.0])
    vecs = np.array([[-1 / 3, 2 * np.sqrt(2) / 3, 0.0], [0.25, -0.5, 1e-17]])
    text = format_cert(vstar, vecs)
    first = text.splitlines()[0]
    assert first == "3 3"
    back_star, back_vecs = parse_cert(text)
    # 17 significant digits make the roundtrip lossless.
    assert np.array_equal(back_star, vstar)
    assert np.array_equal(back_vecs, vecs)


def test_cert_row_count_checked():
    with pytest.raises(FormatError, match="rows"):
        parse_cert("3 2\n1 0\n0 1\n")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_h3_roundtrip_property(data):
    n = data.draw(st.integers(min_value=3, max_value=10))
    m = data.draw(st.integers(min_value=0, max_value=6))
    edges = [
        tuple(
            data.draw(
                st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
            )
        )
        for _ in range(m)
    ]
    H = Hypergraph(n, edges)
    assert parse_h3(format_h3(H)) == H


@given(st.dictionaries(st.integers(0, 30), st.integers(1, 9), max_size=12))
@settings(max_examples=40, deadline=None)
def test_coloring_roundtrip_property(ranks):
    c = RankedColoring(ranks)
    assert parse_coloring(format_coloring(c)) == c
