"""Text file formats: ``.h3`` hypergraphs, coloring files, ``.cert`` vector sidecars.

``.h3``: header line ``p h3 <n> <m>``, then m lines ``<a> <b> <c>`` with
1-indexed vertex ids.  Lines starting with ``c`` are comments.  The reader
rejects a repeated edge line and any edge that ``Hypergraph`` rejects (an id
outside ``1..n`` or a repeated vertex) with ``FormatError``.

Coloring: n lines ``<vertex> <color>``, both 1-indexed, colors 1..k.

``.cert``: first line ``<n+1> <d>``, then the special vector row, then n rows
of d floats (the per-vertex vectors).

Each ``read_*`` raises ``FormatError`` naming the path for a malformed or
non-ASCII file.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

import numpy as np

from .hypercore import Hypergraph, RankedColoring

T = TypeVar("T")


class FormatError(ValueError):
    """Malformed instance, coloring, or certificate file."""


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line


def parse_h3(text: str) -> Hypergraph:
    """Parse ``.h3`` text into a (sorted, deduplicated) ``Hypergraph``."""
    n = m = None
    edges = []
    seen = set()
    for lineno, line in _data_lines(text):
        parts = line.split()
        if n is None:
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "h3":
                raise FormatError(f"line {lineno}: expected header 'p h3 <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad header numbers") from exc
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative size in header")
            continue
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected three vertex ids")
        try:
            edge = tuple(int(p) - 1 for p in parts)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad vertex id") from exc
        key = tuple(sorted(edge))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {len(edges)}")
        seen.add(key)
        edges.append(edge)
    if n is None:
        raise FormatError("missing 'p h3' header")
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, file has {len(edges)}")
    try:
        return Hypergraph(n, edges)
    except ValueError as exc:
        raise FormatError(f"{exc}, with ids counted from 0") from exc


def format_h3(H: Hypergraph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for chunk in comment.splitlines():
            lines.append(f"c {chunk}")
    lines.append(f"p h3 {H.n} {H.m}")
    for a, b, c in H.edges:
        lines.append(f"{a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


def _read(path: str | os.PathLike, parse: Callable[[str], T]) -> T:
    """``parse`` of an ASCII file's text; a ``FormatError`` names the path."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse(fh.read())
        except (FormatError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc


def read_h3(path: str | os.PathLike) -> Hypergraph:
    """Read and check an instance file."""
    return _read(path, parse_h3)


def write_h3(path: str | os.PathLike, H: Hypergraph, comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_h3(H, comment))


def format_coloring(coloring: RankedColoring) -> str:
    lines = [f"{v + 1} {r}" for v, r in coloring.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_coloring(text: str) -> RankedColoring:
    ranks = {}
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex> <color>'")
        try:
            v, r = int(parts[0]) - 1, int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad number") from exc
        if v < 0:
            raise FormatError(f"line {lineno}: vertex ids are 1-indexed")
        if v in ranks:
            raise FormatError(f"line {lineno}: vertex {v + 1} assigned twice")
        ranks[v] = r
    return RankedColoring(ranks)


def read_coloring(path: str | os.PathLike) -> RankedColoring:
    return _read(path, parse_coloring)


def write_coloring(path: str | os.PathLike, coloring: RankedColoring) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_coloring(coloring))


def format_cert(vstar: np.ndarray, vecs: np.ndarray) -> str:
    vstar = np.asarray(vstar, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2 or vstar.ndim != 1 or vecs.shape[1] != vstar.shape[0]:
        raise FormatError("certificate arrays must be (d,) and (n, d)")
    rows = [f"{vecs.shape[0] + 1} {vstar.shape[0]}"]
    for row in (vstar, *vecs):
        rows.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(rows) + "\n"


def parse_cert(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = [line for _, line in _data_lines(text)]
    if not lines:
        raise FormatError("empty certificate")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("certificate header must be '<n+1> <d>'")
    try:
        rows, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError("bad certificate header") from exc
    if rows < 1 or d < 1:
        raise FormatError("certificate must hold at least the special vector")
    if len(lines) - 1 != rows:
        raise FormatError(f"expected {rows} vector rows, found {len(lines) - 1}")
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != d:
            raise FormatError(f"row {lineno}: expected {d} floats")
        try:
            data.append([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"row {lineno}: bad float") from exc
    arr = np.array(data, dtype=float)
    return arr[0], arr[1:]


def read_cert(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    return _read(path, parse_cert)


def write_cert(path: str | os.PathLike, vstar: np.ndarray, vecs: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_cert(vstar, vecs))
