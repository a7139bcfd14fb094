"""Matrix algebra over the max-times semiring ``([0, inf), max, *)``.

The additive identity is 0 ("no path"), the multiplicative identity is 1.
``max_times_product`` is matrix multiplication over this semiring;
``model.minimal_dag`` takes one such product to compare every coefficient
with its best two-step composition.  The model's recursion
``X_v = max(Z_v, max_{u in pa(v)} c_vu X_u)`` is evaluated in one place, a
sweep along a well-ordering of the weight matrix's positive pattern:
``closure`` applies it to the unit vectors and ``model.propagate`` to noise
rows.  ``brute_force_coefficients`` recomputes the closure by exhaustive
path enumeration and exists as an independent oracle for it.

Matrix convention: row index is the target vertex, column index the source,
so ``M[v-1, u-1]`` carries the weight attached to ``u -> v``.

Matrices are checked once, where they enter: every public function here and
in :mod:`model` that takes a weight or coefficient matrix passes it through
:func:`_unit_matrix` (2-d, finite, nonnegative, square, unit diagonal), and
``max_times_product`` its rectangular factors through :func:`_as_matrix`
(the same without the last two).  No other module writes a matrix check of
its own: a bad shape raises :class:`DimensionMismatch` and bad values
:class:`InvalidWeightMatrix`, or :class:`InvalidCoefficientMatrix` for a
coefficient matrix.

Equality of path weights is never exact in floating point (products of the
same weights associate differently), so every tie or equality decision in
this package goes through :func:`values_close` at the one relative tolerance
``DEFAULT_RTOL``, which no call overrides.  Whether two observed ratios hit
the same atom is decided at the ``atom_rtol`` argument of
``estimation.ratio_statistics`` and the ``identify_*`` functions (default
``DEFAULT_ATOM_RTOL``), the package's one per-call tolerance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    CycleError,
    DimensionMismatch,
    InvalidWeightMatrix,
    NotAPath,
    SizeLimitExceeded,
)
from .graph import Dag, _check_label

#: Relative tolerance governing all equality comparisons between path weights.
DEFAULT_RTOL = 1e-9

#: Paths :func:`brute_force_coefficients` enumerates before it gives up.
MAX_PATHS = 10**6


def values_close(x, y):
    """Relative closeness ``|x - y| <= DEFAULT_RTOL * max(|x|, |y|)``, elementwise.

    ``x`` and ``y`` are numbers or arrays that broadcast together; the
    result is a numpy bool or a bool array of the broadcast shape.  Every
    tie in the package is decided here.
    """
    return np.abs(x - y) <= DEFAULT_RTOL * np.maximum(np.abs(x), np.abs(y))


def matrices_close(f: np.ndarray, g: np.ndarray) -> bool:
    """Entrywise :func:`values_close`; shapes must match exactly."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        return False
    return bool(np.all(values_close(f, g)))


def _as_matrix(m, name: str, error=InvalidWeightMatrix) -> np.ndarray:
    """``m`` as a float array, checked 2-d, finite and nonnegative."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise error(f"{name} has negative or non-finite entries")
    return a


def _unit_matrix(m, name: str, error=InvalidWeightMatrix) -> np.ndarray:
    """:func:`_as_matrix`, also checked square with a unit diagonal, as
    every weight and coefficient matrix is."""
    a = _as_matrix(m, name, error)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    if not np.all(np.diag(a) == 1.0):
        raise error(f"{name} diagonal entries must all equal 1")
    return a


def max_times_product(f, g) -> np.ndarray:
    """Max-times matrix product ``(F (x) G)[v, u] = max_k F[v, k] * G[k, u]``.

    Parameters
    ----------
    f, g : array_like
        Nonnegative matrices with ``f.shape[1] == g.shape[0]``.
    """
    F = _as_matrix(f, "left factor")
    G = _as_matrix(g, "right factor")
    if F.shape[1] != G.shape[0]:
        raise DimensionMismatch(
            f"inner dimensions differ: {F.shape} (x) {G.shape}"
        )
    out = np.empty((F.shape[0], G.shape[1]))
    for v in range(F.shape[0]):
        np.max(F[v][:, None] * G, axis=0, out=out[v])
    return out


def _weighted_dag(c) -> tuple[np.ndarray, Dag]:
    C = _unit_matrix(c, "weight matrix")
    d = C.shape[0]
    edges = [(u + 1, v + 1) for v, u in np.argwhere(C).tolist() if u != v]
    try:
        return C, Dag(d, edges)
    except CycleError as exc:
        raise InvalidWeightMatrix(f"positive pattern is cyclic: {exc}") from exc


def _sweep(c, z=None) -> np.ndarray:
    """The max-linear recursion of the weight matrix ``c``, pushed through
    the rows of ``z`` (the identity when ``None``).

    Requires ``c`` square, finite and nonnegative with unit diagonal and an
    acyclic positive off-diagonal pattern, then visits the vertices along
    the well-ordering of that pattern and sets
    ``x_v = max(z_v, max_{u in pa(v)} c_vu * x_u)``.  Returns the result
    transposed, shape ``(d, n)``: row ``v - 1`` holds vertex ``v`` across
    the ``n`` rows of ``z``.  Every entry is a maximum of path products
    multiplied from the source onwards.
    """
    C, g = _weighted_dag(c)
    if z is None:
        x = np.eye(g.d)
    else:
        Z = np.atleast_2d(np.asarray(z, dtype=float))
        if Z.shape[1] != g.d:
            raise DimensionMismatch(f"noise width {Z.shape[1]} vs matrix {C.shape}")
        x = Z.T.copy()
    for v in g.well_order:
        xv = x[v - 1]
        for u in g.parents(v):
            np.maximum(xv, C[v - 1, u - 1] * x[u - 1], out=xv)
    return x


def closure(c) -> np.ndarray:
    """Best-path-weight matrix of an edge-weight matrix.

    Entry ``[v-1, u-1]`` of the result is the maximal product of edge
    weights over directed paths from ``u`` to ``v``, 1 on the diagonal, 0
    where no path exists.  It is the max-linear recursion evaluated on the
    unit noise vectors: column ``u`` is the outcome of the noise ``e_u``.
    """
    return _sweep(c)


def path_weight(c, path: Sequence[int]) -> float:
    """Product of edge weights along a directed path.

    ``path`` is a vertex sequence ``[k0, k1, ...]``; every consecutive pair
    must be an edge of the DAG underlying ``c`` (positive off-diagonal
    entry).  A length-0 path has weight 1.  A label that is not an integer
    raises :class:`VertexOutOfRange`, one outside ``1..d`` :class:`NotAPath`.
    """
    C = _unit_matrix(c, "weight matrix")
    d = C.shape[0]
    verts = list(path)
    if not verts:
        raise NotAPath("a path contains at least one vertex")
    for v in verts:
        _check_label(v)
        if not 1 <= v <= d:
            raise NotAPath(f"vertex {v} outside 1..{d}")
    if len(set(verts)) != len(verts):
        raise NotAPath(f"repeated vertex in {verts}")
    w = 1.0
    for u, v in zip(verts, verts[1:]):
        cvu = C[v - 1, u - 1]
        if cvu <= 0.0:
            raise NotAPath(f"({u}, {v}) is not an edge")
        w *= cvu
    return w


def brute_force_coefficients(g: Dag, c) -> np.ndarray:
    """Oracle for :func:`closure` by exhaustive path enumeration.

    Enumerates every directed path of ``g`` and takes, per ordered vertex
    pair, the maximal path weight.  Intended for small graphs only; raises
    :class:`SizeLimitExceeded` after :data:`MAX_PATHS` enumerated paths.
    """
    C = _unit_matrix(c, "weight matrix")
    if C.shape != (g.d, g.d):
        raise DimensionMismatch(f"matrix shape {C.shape} does not match d={g.d}")
    B = np.eye(g.d)
    count = 0
    for u in range(1, g.d + 1):
        stack = [(u, 1.0)]
        while stack:
            v, w = stack.pop()
            for t in g.children(v):
                wt = w * C[t - 1, v - 1]
                count += 1
                if count > MAX_PATHS:
                    raise SizeLimitExceeded(f"more than {MAX_PATHS} paths")
                if wt > B[t - 1, u - 1]:
                    B[t - 1, u - 1] = wt
                stack.append((t, wt))
    return B
