"""Stable on-disk formats: DAG JSON, matrix JSON, and sample CSV.

DAG JSON::

    {"d": 4,
     "edges": [{"from": 1, "to": 2, "weight": 0.5}, ...],
     "names": ["rain", ...]}          # optional

``weight`` entries are optional for graph-only queries.  Matrices are
written as row-major arrays of numbers.  Samples are CSV with header
``x1,...,xd`` and one observation per row, written a block of rows per
``%`` formatting operation and read by ``numpy.loadtxt``.  Floats are
always written with 17 significant digits so that values survive a
write/read cycle exactly - the estimation code depends on recurring
ratios staying bit-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
from typing import Optional, TextIO

import numpy as np

from .errors import MaxLinError, MissingEdgeWeight
from .graph import Dag, Edge


def fmt17(x: float) -> str:
    """A float with 17 significant digits (exact double round trip)."""
    return format(float(x), ".17g")


def dag_to_dict(g: Dag, weights: Optional[dict[Edge, float]] = None) -> dict:
    edges = []
    for u, v in sorted(g.edges):
        entry: dict = {"from": u, "to": v}
        if weights is not None:
            entry["weight"] = weights[(u, v)]
        edges.append(entry)
    out: dict = {"d": g.d, "edges": edges}
    if g.names is not None:
        out["names"] = list(g.names)
    return out


def dag_from_dict(obj: dict) -> tuple[Dag, Optional[dict[Edge, float]]]:
    """Parse DAG JSON; returns the graph and the weights if every edge has one."""
    try:
        d = obj["d"]
        raw = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise MaxLinError(f"DAG JSON needs 'd' and 'edges' fields: {exc}") from exc
    names = obj.get("names")
    if not isinstance(raw, list) or not isinstance(names, (list, type(None))):
        raise MaxLinError("DAG JSON 'edges' and 'names' must be lists")
    edges = []
    weights: dict[Edge, float] = {}
    weighted = 0
    for entry in raw:
        try:
            # ids pass through unchanged, so Dag rejects non-integers
            e = (entry["from"], entry["to"])
            if "weight" in entry:
                weights[e] = float(entry["weight"])
                weighted += 1
        except (KeyError, TypeError, ValueError) as exc:
            raise MaxLinError(f"malformed edge entry {entry!r}: {exc}") from exc
        edges.append(e)
    g = Dag(d, edges, names=names)
    if weighted == 0:
        return g, None
    if weighted < len(edges):
        raise MissingEdgeWeight("either all edges carry weights or none do")
    return g, weights


def load_dag(path: str) -> tuple[Dag, Optional[dict[Edge, float]]]:
    with open(path) as fh:
        return dag_from_dict(json.load(fh))


def save_dag(path: str, g: Dag, weights: Optional[dict[Edge, float]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(dag_to_dict(g, weights), fh, indent=2)
        fh.write("\n")


def matrix_to_rows(m: np.ndarray) -> list[list[float]]:
    return np.asarray(m, dtype=float).tolist()


#: Values formatted per ``%`` operation when writing a sample CSV.
_BLOCK_VALUES = 4096


def write_samples(path_or_file, x: np.ndarray) -> None:
    a = np.asarray(x, dtype=float)
    d = a.shape[1]
    close = False
    if isinstance(path_or_file, str):
        fh: TextIO = open(path_or_file, "w", newline="")
        close = True
    else:
        fh = path_or_file
    try:
        fh.write(",".join(f"x{j}" for j in range(1, d + 1)) + "\r\n")
        row = ",".join(["%.17g"] * d) + "\r\n"
        k = max(1, _BLOCK_VALUES // max(d, 1))
        for start in range(0, a.shape[0], k):
            block = a[start : start + k]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    finally:
        if close:
            fh.close()


def read_samples(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise MaxLinError(f"{path}: empty sample file")
        # starting loadtxt on an observation keeps its empty-input warning off
        first = next((line for line in fh if line.rstrip("\r\n")), None)
        if first is None:
            raise MaxLinError(f"{path}: no observations")
        try:
            x = np.loadtxt(
                itertools.chain([first], fh),
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=2,
            )
        except ValueError as exc:
            raise MaxLinError(f"{path}: {_malformed_rows(path) or exc}") from exc
    if len(header) != x.shape[1]:
        raise MaxLinError(
            f"{path}: the header names {len(header)} columns, the rows have {x.shape[1]}"
        )
    return x


def _malformed_rows(path: str) -> Optional[str]:
    """What is wrong with the observations of a sample CSV that
    ``np.loadtxt`` rejected: the first cell ``float`` cannot parse, else
    the first row whose width differs from the first row's.  Observations
    are counted from 1, skipping blank lines."""
    width = ragged = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for k, row in enumerate(filter(None, reader), start=1):
            try:
                for v in row:
                    float(v)
            except ValueError as exc:
                return str(exc)
            if width is None:
                width = len(row)
            elif ragged is None and len(row) != width:
                ragged = (
                    f"the number of columns changed from {width} to {len(row)}"
                    f" at observation {k}"
                )
    return ragged


def format_table(m: np.ndarray) -> str:
    """Aligned human-readable table with 6 significant digits."""
    a = np.asarray(m, dtype=float)
    cells = [[format(v, ".6g") for v in row] for row in a]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(a.shape[1])]
    return "\n".join(
        "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
    )
