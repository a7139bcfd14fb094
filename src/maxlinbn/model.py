"""Recursive max-linear structural equation models on DAGs.

A model assigns every edge ``u -> v`` a positive weight ``c_vu``; the value
at a vertex is the maximum of its weighted parent values and its own noise,
``X_v = max(max_u c_vu * X_u, Z_v)``.  Eliminating the recursion expresses
each ``X_v`` as a max-linear combination of the noise variables with the
coefficient matrix ``B = closure(C)``: ``X = B (x) Z`` rowwise.  Sampling
evaluates the recursion itself, along the well-ordering, with the same
sweep that computes the closure.

The distribution of ``X`` determines ``B`` but not the DAG: several DAGs
and weight choices induce the same ``B``.  :func:`minimal_dag` recovers the
unique edge-minimal representative, :func:`admissible_weights` describes
all weights a given compatible DAG may carry, and :func:`marginal_rows`
gives the coefficient rows of a sub-vector of the model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    ExtraneousWeight,
    IncompatibleDag,
    InvalidCoefficientMatrix,
    MaxLinError,
    MissingEdgeWeight,
    NonPositiveWeight,
    VertexOutOfRange,
)
from .graph import Dag, Edge, _check_integer, _is_int, _vertex_set
from .tropical import _sweep, _unit_matrix, closure, max_times_product, values_close


class WeightKind(enum.Enum):
    """How a coefficient matrix constrains one edge weight."""

    FIXED = "fixed"
    OPEN_INTERVAL = "open_interval"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution for sampling: family, parameters, and seed.

    Both families are continuous with support ``(0, inf)``.  ``frechet``
    has CDF ``exp(-x**-alpha)``; ``lognormal`` is ``exp(Normal(mu, sigma))``.
    Parameters must be finite; ``alpha`` and ``sigma`` must be positive.
    The seed is any integer; it is used modulo ``2**64``.
    """

    family: str
    params: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.family == "frechet":
            names = ("alpha",)
        elif self.family == "lognormal":
            names = ("mu", "sigma")
        else:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not _is_int(self.seed):
            raise MaxLinError(f"noise seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for name, value in zip(names, self.params, strict=True):
            if not np.isfinite(value):
                raise MaxLinError(f"{self.family} {name} must be finite, got {value}")
        if not self.params[-1] > 0:
            raise NonPositiveWeight(
                f"{self.family} {names[-1]} must be positive, got {self.params[-1]}"
            )

    @classmethod
    def frechet(cls, alpha: float, seed: int) -> "NoiseSpec":
        return cls("frechet", (float(alpha),), seed)

    @classmethod
    def lognormal(cls, mu: float, sigma: float, seed: int) -> "NoiseSpec":
        return cls("lognormal", (float(mu), float(sigma)), seed)

    def _draw(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        """An ``(n, d)`` matrix of noise values, filled row by row from ``rng``."""
        if self.family == "lognormal":
            mu, sigma = self.params
            return rng.lognormal(mu, sigma, (n, d))
        (alpha,) = self.params
        z = rng.random((n, d))
        # rng.random() can return exactly 0; nudge into the open interval
        np.maximum(z, np.nextafter(0.0, 1.0), out=z)
        np.log(z, out=z)
        np.negative(z, out=z)
        # ``**=``, not np.power: like ``**`` it takes numpy's reciprocal
        # shortcut at alpha = 1
        z **= -1.0 / alpha
        return z


def assemble_weight_matrix(g: Dag, weights: Mapping[Edge, float]) -> np.ndarray:
    """Edge-weight matrix with unit diagonal from a per-edge weight mapping.

    Every edge of ``g`` must carry a strictly positive weight and no weight
    may refer to a non-edge.
    """
    extra = set(weights) - g.edges
    if extra:
        raise ExtraneousWeight(f"weights given for non-edges {sorted(extra)}")
    missing = g.edges - set(weights)
    if missing:
        raise MissingEdgeWeight(f"edges without weights: {sorted(missing)}")
    C = np.eye(g.d)
    for (u, v), w in weights.items():
        w = float(w)
        if not w > 0:
            raise NonPositiveWeight(f"weight for edge ({u}, {v}) must be > 0, got {w}")
        C[v - 1, u - 1] = w
    return C


class MaxLinearModel:
    """A DAG together with positive edge weights and the derived coefficients.

    Parameters
    ----------
    graph : Dag
    weights : mapping (u, v) -> float
        Strictly positive weight for every edge of ``graph``.

    Attributes
    ----------
    C : ndarray
        Edge-weight matrix, unit diagonal, ``C[v-1, u-1] = c_vu``.
    B : ndarray
        Max-times closure of ``C`` (read-only, cached).
    """

    __slots__ = ("graph", "C", "B")

    def __init__(self, graph: Dag, weights: Mapping[Edge, float]):
        self.graph = graph
        self.C = assemble_weight_matrix(graph, weights)
        self.B = closure(self.C)
        self.C.flags.writeable = False
        self.B.flags.writeable = False

    @property
    def d(self) -> int:
        return self.graph.d

    def edge_weights(self) -> dict[Edge, float]:
        return {(u, v): float(self.C[v - 1, u - 1]) for u, v in sorted(self.graph.edges)}

    def sample(self, n: int, noise: NoiseSpec) -> np.ndarray:
        """Draw ``n`` observations as rows of an ``(n, d)`` matrix.

        The noise comes from one generator stream seeded by ``noise.seed``
        (see :func:`noise_matrix`), so the output is reproducible and
        prefix-stable: ``sample(m, noise)`` is the first ``m`` rows of
        ``sample(n, noise)`` for ``m <= n``.  Each row is the noise row of
        :func:`noise_matrix` pushed through the recursion
        ``X_v = max(Z_v, max_u c_vu X_u)`` along the well-ordering, so it
        satisfies the recursion exactly, with no rounding beyond the one
        product per edge.
        """
        _check_integer(n, "n")
        if n < 1:
            raise ValueError(f"need n >= 1 observations, got {n}")
        z = noise_matrix(noise, n, self.d)
        return propagate(self.C, z)

    def __repr__(self) -> str:
        return f"MaxLinearModel({self.graph!r}, {self.edge_weights()!r})"


def noise_matrix(noise: NoiseSpec, n: int, d: int) -> np.ndarray:
    """The ``(n, d)`` noise draw underlying :meth:`MaxLinearModel.sample`.

    One generator, ``default_rng(noise.seed % 2**64)``, fills the matrix
    row by row from a single stream, so the first ``m`` rows of a draw of
    ``n >= m`` rows are the draw of ``m`` rows.  Row 0 equals
    ``default_rng((noise.seed % 2**64, 0))``'s draw of ``d`` values, since
    numpy seeds both generators with the same state.

    Raises :class:`MaxLinError` when a draw overflows to ``inf`` or
    underflows to 0: the parameters then give no sample in ``(0, inf)``.
    """
    _check_integer(n, "n")
    _check_integer(d, "d")
    rng = np.random.default_rng(noise.seed % 2**64)
    with np.errstate(over="ignore", under="ignore"):
        z = noise._draw(rng, n, d)
    if z.size and not (z.min() > 0 and z.max() < np.inf):
        raise MaxLinError(f"{noise!r} draws values outside (0, inf)")
    return z


def propagate(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Push noise rows through a model: returns ``B (x) z`` rowwise, that is
    ``x[v] = max_u b[v, u] * z[u]`` per row.

    ``c`` may be the edge-weight matrix ``C`` or its closure ``B``: both
    satisfy the recursion ``x[v] = max(z[v], max_u c[v, u] * x[u])``, which
    is evaluated along the well-ordering of the positive pattern.  Either
    matrix must be a valid weight matrix (square, nonnegative, unit
    diagonal, acyclic pattern); ``z`` has one column per vertex.  Results
    for ``C`` and ``B`` agree up to rounding.

    This is the deterministic half of sampling, split out so tests can feed
    degenerate noise (for example all ones) directly.
    """
    return np.ascontiguousarray(_sweep(c, z).T)


def minimal_dag(b) -> tuple[Dag, dict[Edge, float]]:
    """Edge-minimal DAG and weights reproducing a coefficient matrix.

    An edge ``u -> v`` survives exactly when its coefficient beats every
    two-step composition: ``b_vu > max_k b_vk * b_ku`` over ``k`` distinct
    from ``u`` and ``v``.  With ``off`` the matrix ``b`` with its diagonal
    set to 0, those compositions are the max-times product
    ``off (x) off``, where ``k = u`` and ``k = v`` contribute 0.  A
    composition that :func:`values_close` calls equal to ``b_vu`` means an
    alternative best-weight path exists, so the edge is dropped.  Weights
    of kept edges are pinned to the coefficients themselves.

    The DAG's reachability is the sign pattern ``R = b > 0`` for any values:
    ``R`` is checked antisymmetric and transitively closed, so it is a
    partial order that holds every kept edge.  An edge ``u -> v`` of ``R`` is
    dropped only for a positive composition through some ``k`` strictly
    between ``u`` and ``v``; by induction on the interval ``[u, v]`` of
    ``R``, kept edges still lead from ``u`` to ``k`` and on to ``v``.
    """
    B = _unit_matrix(b, "coefficient matrix", InvalidCoefficientMatrix)
    R = B > 0
    if np.any(R & R.T & ~np.eye(B.shape[0], dtype=bool)):
        raise InvalidCoefficientMatrix("sign pattern is not antisymmetric")
    if np.any(((R.astype(np.int64) @ R.astype(np.int64)) > 0) & ~R):
        raise InvalidCoefficientMatrix("sign pattern is not transitively closed")
    off = B.copy()
    np.fill_diagonal(off, 0.0)
    best = max_times_product(off, off)
    keep = (off > best) & ~values_close(best, off)
    edges = {(u + 1, v + 1): float(B[v, u]) for v, u in np.argwhere(keep).tolist()}
    return Dag(B.shape[0], edges.keys()), edges


def admissible_weights(b, g: Dag) -> dict[Edge, tuple[WeightKind, float]]:
    """Constraints on each edge weight of ``g`` for it to carry the model
    with coefficient matrix ``b``.

    Edges of the minimal DAG are pinned (``FIXED``) to their coefficient;
    any additional edge of ``g`` may take any value in the open interval
    ``(0, b_vu)`` (``OPEN_INTERVAL`` with that upper bound).  ``g`` must
    contain the minimal DAG and induce the same reachability.
    """
    minimal, _ = minimal_dag(b)
    B = np.asarray(b, dtype=float)
    if g.d != minimal.d:
        raise DimensionMismatch(f"matrix {B.shape} vs d={g.d}")
    if not np.array_equal(g.reach, minimal.reach):
        raise IncompatibleDag("reachability differs from the coefficient sign pattern")
    missing = minimal.edges - g.edges
    if missing:
        raise IncompatibleDag(f"required minimal edges absent: {sorted(missing)}")
    out: dict[Edge, tuple[WeightKind, float]] = {}
    for u, v in sorted(g.edges):
        bound = float(B[v - 1, u - 1])
        kind = WeightKind.FIXED if (u, v) in minimal.edges else WeightKind.OPEN_INTERVAL
        out[(u, v)] = (kind, bound)
    return out


def marginal_rows(b, vertices: Iterable[int]) -> np.ndarray:
    """Rows of the coefficient matrix for a subset of vertices, ascending.

    Two models whose marginal rows agree on a subset induce the same joint
    distribution of that sub-vector (under the same noise law): the kept
    rows are exactly the max-linear representation of those coordinates.
    ``b`` is checked like the argument of :func:`minimal_dag`, apart from
    its sign pattern.
    """
    B = _unit_matrix(b, "coefficient matrix", InvalidCoefficientMatrix)
    subset = sorted(_vertex_set(vertices, B.shape[0]))
    if not subset:
        raise VertexOutOfRange("vertex subset must be nonempty")
    return B[[v - 1 for v in subset], :]
