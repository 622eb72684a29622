"""DIMACS shortest-path challenge graph I/O.

The paper's six datasets come from the 9th DIMACS implementation challenge
(``http://www.dis.uniroma1.it/challenge9``).  Those downloads are not
available offline, but this module implements the full format so the real
files drop in unchanged:

* ``.gr`` distance graphs — ``p sp <n> <m>`` header, ``a <u> <v> <w>``
  arc lines, ``c`` comments (1-based vertex ids);
* ``.co`` coordinate files — ``p aux sp co <n>`` header and
  ``v <id> <x> <y>`` lines;
* transparent ``.gz`` handling for both.
"""

from __future__ import annotations

import gzip
import io
import zlib
from pathlib import Path
from typing import IO, Callable, Iterator, TypeVar

from repro.errors import GraphError, GraphFormatError
from repro.roadnet.graph import RoadNetwork

_Num = TypeVar("_Num", int, float)


def _open_text(path: str | Path, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        raw = gzip.open(path, mode + "b")
        return io.TextIOWrapper(raw, encoding="ascii")  # type: ignore[arg-type]
    return open(path, mode, encoding="ascii")


def _records(path: str | Path, fh: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` of every non-blank, non-comment line.

    Bytes that do not decode — non-ASCII text, a file that is not gzip,
    a truncated or corrupt ``.gz`` — raise :class:`GraphFormatError`
    naming the last line read whole (decoding runs in blocks, so the
    bad line itself is not known).
    """
    lineno = 0
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("c"):
                yield lineno, line.split()
    except (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise GraphFormatError(f"{path}: unreadable after line {lineno}: {exc}") from None


def _number(path: str | Path, lineno: int, text: str, kind: Callable[[str], _Num]) -> _Num:
    try:
        return kind(text)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: not a number: {text!r}") from None


def read_gr(path: str | Path) -> RoadNetwork:
    """Read a DIMACS ``.gr``/``.gr.gz`` distance graph.

    Raises:
        GraphFormatError: missing/duplicate header, malformed arc lines,
            non-numeric fields, negative or non-finite weights, vertex
            ids outside ``[1, n]``, arc count mismatch, or bytes that do
            not decode.
    """
    graph: RoadNetwork | None = None
    declared_arcs = 0
    seen_arcs = 0
    with _open_text(path, "r") as fh:
        for lineno, fields in _records(path, fh):
            if fields[0] == "p":
                if graph is not None:
                    raise GraphFormatError(f"{path}:{lineno}: duplicate problem line")
                if len(fields) != 4 or fields[1] != "sp":
                    raise GraphFormatError(f"{path}:{lineno}: expected 'p sp <n> <m>'")
                n = _number(path, lineno, fields[2], int)
                declared_arcs = _number(path, lineno, fields[3], int)
                graph = RoadNetwork()
                graph.add_vertices(n)
            elif fields[0] == "a":
                if graph is None:
                    raise GraphFormatError(f"{path}:{lineno}: arc before problem line")
                if len(fields) != 4:
                    raise GraphFormatError(f"{path}:{lineno}: expected 'a <u> <v> <w>'")
                u = _number(path, lineno, fields[1], int)
                v = _number(path, lineno, fields[2], int)
                w = _number(path, lineno, fields[3], float)
                if not (1 <= u <= graph.num_vertices and 1 <= v <= graph.num_vertices):
                    raise GraphFormatError(f"{path}:{lineno}: vertex id out of range")
                try:
                    graph.add_edge(u - 1, v - 1, w)
                except GraphError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
                seen_arcs += 1
            else:
                raise GraphFormatError(f"{path}:{lineno}: unknown record '{fields[0]}'")
    if graph is None:
        raise GraphFormatError(f"{path}: no problem line found")
    if seen_arcs != declared_arcs:
        raise GraphFormatError(
            f"{path}: header declares {declared_arcs} arcs but file has {seen_arcs}"
        )
    return graph


def read_co(path: str | Path, graph: RoadNetwork) -> None:
    """Read a DIMACS ``.co`` coordinate file into ``graph`` (in place).

    The graph must already have the vertices; coordinates are attached by
    rebuilding the vertex records (vertices are immutable dataclasses).

    Raises:
        GraphFormatError: malformed or non-numeric ``v`` lines, unknown
            vertex ids, or bytes that do not decode.
    """
    coords: dict[int, tuple[float, float]] = {}
    with _open_text(path, "r") as fh:
        for lineno, fields in _records(path, fh):
            if fields[0].startswith("p"):
                continue
            if fields[0] != "v" or len(fields) != 4:
                raise GraphFormatError(f"{path}:{lineno}: expected 'v <id> <x> <y>'")
            vid = _number(path, lineno, fields[1], int)
            x = _number(path, lineno, fields[2], float)
            coords[vid - 1] = (x, _number(path, lineno, fields[3], float))
    from repro.roadnet.graph import Vertex  # local import to avoid cycle noise

    for vid, (x, y) in coords.items():
        if not 0 <= vid < graph.num_vertices:
            raise GraphFormatError(f"{path}: coordinate for unknown vertex {vid + 1}")
        graph._vertices[vid] = Vertex(vid, x, y)  # noqa: SLF001 - intentional rebuild


def write_gr(graph: RoadNetwork, path: str | Path, comment: str = "") -> None:
    """Write ``graph`` as a DIMACS ``.gr``/``.gr.gz`` file."""
    with _open_text(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"c {line}\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for e in graph.edges():
            w = int(round(e.weight)) if float(e.weight).is_integer() else e.weight
            fh.write(f"a {e.source + 1} {e.dest + 1} {w}\n")


def write_co(graph: RoadNetwork, path: str | Path) -> None:
    """Write vertex coordinates as a DIMACS ``.co``/``.co.gz`` file."""
    with _open_text(path, "w") as fh:
        fh.write(f"p aux sp co {graph.num_vertices}\n")
        for v in graph.vertices():
            fh.write(f"v {v.id + 1} {v.x} {v.y}\n")
