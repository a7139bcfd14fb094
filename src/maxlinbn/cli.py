"""Command-line interface.

Every subcommand is a thin adapter over one or two library calls; no
estimation or graph logic lives here.  Exit codes: 0 on success, 1 on a
domain error (cycle, dimension mismatch, non-positive sample, ...), 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import formats
from .errors import MaxLinError
from .estimation import (
    DEFAULT_ATOM_RTOL,
    ancestor_ratio_coefficients,
    generalized_likelihood_ratio,
    glr_two_node_sample,
    gmle_edge_weights,
    identify_coefficients,
    identify_structure,
    ratio_statistics,
)
from .graph import markov_equivalent
from .model import MaxLinearModel, NoiseSpec, minimal_dag
from .separation import d_separated, m_separated, markov_statements
from .tropical import closure


def _parse_vertices(text: str) -> set[int]:
    return {int(tok) for tok in text.split(",") if tok.strip()}


def _print_matrix(m: np.ndarray, label: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps({label: formats.matrix_to_rows(m)}))
    else:
        print(f"{label}:")
        print(formats.format_table(m))


def _print_result(out: dict, as_json: bool) -> None:
    """One JSON line, or one ``key: value`` line per entry with bools in
    lower case and floats to 17 significant digits."""
    if as_json:
        print(json.dumps(out))
        return
    for key, value in out.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float):
            value = formats.fmt17(value)
        print(f"{key}: {value}")


def _require_weights(weights, what: str):
    if weights is None:
        raise MaxLinError(f"{what} requires a DAG JSON with edge weights")
    return weights


def _cmd_closure(args) -> int:
    g, weights = formats.load_dag(args.dag)
    b = MaxLinearModel(g, _require_weights(weights, "closure")).B
    _print_matrix(b, "B", args.json)
    return 0


def _cmd_sample(args) -> int:
    g, weights = formats.load_dag(args.model)
    model = MaxLinearModel(g, _require_weights(weights, "sample"))
    if args.noise == "frechet":
        spec = NoiseSpec.frechet(args.alpha, args.seed)
    else:
        spec = NoiseSpec.lognormal(args.mu, args.sigma, args.seed)
    x = model.sample(args.n, spec)
    if args.out:
        formats.write_samples(args.out, x)
    else:
        formats.write_samples(sys.stdout, x)
    return 0


def _cmd_query(args) -> int:
    g, _ = formats.load_dag(args.dag)
    left = _parse_vertices(args.left)
    right = _parse_vertices(args.right)
    given = _parse_vertices(args.given) if args.given else set()
    verdicts = {}
    if args.method in ("d", "both"):
        verdicts["d-separated"] = d_separated(g, left, right, given)
    if args.method in ("m", "both"):
        verdicts["m-separated"] = m_separated(g, left, right, given)
    _print_result(verdicts, args.json)
    if len(verdicts) == 2 and verdicts["d-separated"] != verdicts["m-separated"]:
        print("internal error: separation criteria disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_statements(args) -> int:
    g, _ = formats.load_dag(args.dag)
    stmts = markov_statements(g, args.kind)
    if args.json:
        print(
            json.dumps(
                [
                    {"a": sorted(s.a), "b": sorted(s.b), "given": sorted(s.given)}
                    for s in stmts
                ]
            )
        )
    else:
        for s in stmts:
            print(s)
    return 0


def _cmd_equiv(args) -> int:
    g1, _ = formats.load_dag(args.dag1)
    g2, _ = formats.load_dag(args.dag2)
    _print_result({"markov-equivalent": markov_equivalent(g1, g2)}, args.json)
    return 0


def _cmd_minimize(args) -> int:
    with open(args.matrix) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "B" not in obj:
        raise MaxLinError(f"{args.matrix}: matrix JSON needs a list of rows or a 'B' field")
    rows = obj["B"] if isinstance(obj, dict) else obj
    try:
        b = np.asarray(rows, dtype=float)
    except TypeError as exc:
        raise MaxLinError(f"{args.matrix}: matrix rows must hold numbers: {exc}") from exc
    g, weights = minimal_dag(b)
    print(json.dumps(formats.dag_to_dict(g, weights)))
    return 0


def _cmd_estimate(args) -> int:
    g, _ = formats.load_dag(args.dag)
    x = formats.read_samples(args.samples)
    if args.estimator == "gmle":
        c_hat = gmle_edge_weights(g, x)
        b_hat = closure(c_hat)
        _print_matrix(c_hat, "C_hat", args.json)
        _print_matrix(b_hat, "B_hat", args.json)
    else:
        _print_matrix(ancestor_ratio_coefficients(g, x), "B_tilde", args.json)
    return 0


def _cmd_learn(args) -> int:
    stats = ratio_statistics(formats.read_samples(args.samples), args.atom_rtol)
    b_check = identify_coefficients(stats)
    g, weights = identify_structure(stats, args.atom_rtol)
    if args.json:
        print(
            json.dumps(
                {
                    "B_check": formats.matrix_to_rows(b_check),
                    "dag": formats.dag_to_dict(g, weights),
                    "multiplicity": stats.multiplicity.astype(int).tolist(),
                }
            )
        )
    else:
        _print_matrix(b_check, "B_check", False)
        print("minimal DAG:", json.dumps(formats.dag_to_dict(g, weights)))
        print("atom multiplicities:")
        print(formats.format_table(stats.multiplicity.astype(float)))
    return 0


def _cmd_glr2(args) -> int:
    if args.samples:
        x = formats.read_samples(args.samples)
        fwd, bwd, c_hat = glr_two_node_sample(args.c, x)
        out = {"rho_hat_vs_c": fwd, "rho_c_vs_hat": bwd, "c_hat": c_hat}
    else:
        if args.c_star is None or args.x1 is None or args.x2 is None:
            raise MaxLinError("point mode needs --c-star, --x1 and --x2")
        v = generalized_likelihood_ratio(args.c, args.c_star, (args.x1, args.x2))
        out = {"rho_forward": v.rho_forward, "rho_backward": v.rho_backward}
    _print_result(out, args.json)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="maxlinbn",
        description="Recursive max-linear Bayesian networks: coefficients, "
        "separation queries, sampling, estimation, structure identification.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="coefficient matrix of a weighted DAG")
    p.add_argument("--dag", required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("sample", help="draw observations from a model")
    p.add_argument("--model", required=True, help="DAG JSON with edge weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", choices=["frechet", "lognormal"], default="frechet")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("query", help="separation query")
    p.add_argument("--dag", required=True)
    p.add_argument("--left", required=True, help="comma-separated vertices")
    p.add_argument("--right", required=True)
    p.add_argument("--given", default="")
    p.add_argument("--method", choices=["d", "m", "both"], default="both")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("statements", help="per-vertex Markov statements")
    p.add_argument("--dag", required=True)
    p.add_argument("--kind", choices=["ordered", "local"], default="local")
    p.set_defaults(func=_cmd_statements)

    p = sub.add_parser("equiv", help="Markov equivalence of two DAGs")
    p.add_argument("--dag1", required=True)
    p.add_argument("--dag2", required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("minimize", help="edge-minimal DAG of a coefficient matrix")
    p.add_argument("--matrix", required=True, help="JSON rows, or {\"B\": rows}")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("estimate", help="edge weights / coefficients from samples")
    p.add_argument("--dag", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--estimator", choices=["gmle", "alt"], default="gmle")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("learn", help="identify coefficients and structure from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--atom-rtol", type=float, default=DEFAULT_ATOM_RTOL)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("glr2", help="two-vertex generalized likelihood ratios")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--c-star", type=float)
    p.add_argument("--x1", type=float)
    p.add_argument("--x2", type=float)
    p.add_argument("--samples")
    p.set_defaults(func=_cmd_glr2)

    return parser


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MaxLinError, FileNotFoundError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
