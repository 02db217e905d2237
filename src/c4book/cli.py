"""Command-line entry point wiring every module together.

Exit codes: 0 = claim verified / witness found, 1 = claim refuted or no
witness within budget (the JSON says which), 2 = usage or input error.
All numeric output is exact; artifacts are JSON with embedded graph6
strings, and identical invocations with identical seeds are byte-identical
(wall time lives in a separate "timing" section).

Each handler imports the modules it runs, so a process loads only those.
The same holds for fractions and hashlib: a Fraction is built only for the
options that take one, and a digest only for the files that are hashed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    AsymptoticRegimeNotReached,
    AttemptsExhausted,
    BudgetExhausted,
    C4BookError,
    NotC4Free,
)

if TYPE_CHECKING:
    from .graphcore import Graph

JSON_SCHEMA_VERSION = 1


def _json_default(obj):
    """Exact rationals (DeletionRun.alpha) serialise as "p/q" strings."""
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


class _Run:
    """Collects manifest data for one invocation."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.start = time.monotonic()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.seeds: dict[str, int] = {}

    def read_graph(self, path: str) -> Graph:
        import hashlib

        from . import graphcore

        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return graphcore.g6_decode(data.strip())

    def attach_graph(self, artifact: dict, g: Graph, out: str | None = None) -> None:
        """Embed g in the artifact as graph6 and, given `out`, write it there too."""
        from . import graphcore

        data = graphcore.g6_encode(g)
        artifact["graph6"] = data.decode("ascii")
        if out:
            import hashlib

            data += b"\n"
            with open(out, "wb") as fh:
                fh.write(data)
            self.outputs[out] = hashlib.sha256(data).hexdigest()
            artifact["out"] = out

    def emit(self, artifact: dict, fmt: str, lines: list[str]) -> None:
        manifest = {
            "schema_version": JSON_SCHEMA_VERSION,
            "command": " ".join(self.argv),
            "version": __version__,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        if fmt == "json":
            doc = {
                "artifact": artifact,
                "manifest": manifest,
                "timing": {"wall_time_ms": round(1000 * (time.monotonic() - self.start), 3)},
            }
            print(json.dumps(doc, indent=2, sort_keys=True, default=_json_default))
        else:
            print("\n".join(lines))


def _budget_int(text: str) -> int:
    """A search limit: a positive whole count, scientific notation allowed."""
    try:
        number = float(text)
        value = int(number)
    except (OverflowError, ValueError):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    if value != number:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _fraction(text: str):
    """An exact rational such as "1/2" or "0.3"."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


class _TableArgs(argparse.Action):
    """--table QMIN QMAX K EPS as three ints and an exact Fraction."""

    def __call__(self, parser, namespace, values, option_string=None):
        *ints, eps = values
        try:
            setattr(namespace, self.dest, (*map(int, ints), _fraction(eps)))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"argument {option_string}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4book",
        description="Construct and verify extremal graphs for r(C4, B_n^(k)).",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for searches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="finite field info and operation tables")
    p.set_defaults(handler=_cmd_field)
    p.add_argument("p", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--table", action="store_true", help="print add/mul tables (q <= 64)")

    p = sub.add_parser("er", help="polarity graph of PG(2, q)")
    p.set_defaults(handler=_cmd_er)
    p.add_argument("q", type=int)
    p.add_argument("--out", metavar="FILE.g6")

    p = sub.add_parser("check", help="structural checks on a graph6 file")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("file")
    p.add_argument("--c4", action="store_true")
    p.add_argument("--kst", action="store_true")
    p.add_argument("--friendship", action="store_true")

    p = sub.add_parser("verify", help="is FILE a (C4, B_n^(k))-Ramsey witness?")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("certify", help="lower-bound certificate for FILE")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bounds", help="bound report / admissible-(q,t) table")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--eps", type=_fraction, default="1/2")
    p.add_argument(
        "--table",
        nargs=4,
        action=_TableArgs,
        metavar=("QMIN", "QMAX", "K", "EPS"),
        help="predicted exact values r = q^2 + t over admissible (q, t)",
    )

    p = sub.add_parser("construct", help="build extremal graphs")
    csub = p.add_subparsers(dest="construct_command", required=True)

    c = csub.add_parser("er-subgraph", help="induced subgraph of ER_q with a degree floor")
    c.set_defaults(handler=_cmd_er_subgraph)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--min-deg", type=int, required=True)
    c.add_argument("--budget", type=_budget_int, default=10**7)
    c.add_argument("--out", metavar="FILE.g6")

    c = csub.add_parser("random-delete", help="randomized thinning of ER_p")
    c.set_defaults(handler=_cmd_random_delete)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--c", dest="c_const", type=int, default=6)
    c.add_argument("--alpha", type=_fraction, default="21/80")
    c.add_argument("--max-attempts", type=_budget_int, default=1000)
    c.add_argument("--out", metavar="FILE.g6")

    p = sub.add_parser("search", help="exhaustive or heuristic witness search")
    ssub = p.add_subparsers(dest="search_command", required=True)

    s = ssub.add_parser("exact", help="decide r(C4, B_n^(k)) vs a given order")
    s.set_defaults(handler=_cmd_search_exact)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--N", dest="order", type=int, required=True)
    s.add_argument("--out", metavar="FILE.g6")

    s = ssub.add_parser("gq", help="hunt for a member of the q^2+q+3 witness family")
    s.set_defaults(handler=_cmd_search_gq)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--budget", type=_budget_int, default=10**6)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", metavar="FILE.g6")

    return parser


def _cmd_field(args, run) -> tuple[int, dict, list[str]]:
    from . import gf

    field = gf.field_new(args.p, args.e)
    artifact = {
        "p": field.p,
        "e": field.e,
        "q": field.q,
        "modulus_coefficients_constant_first": list(field.modulus),
    }
    lines = [f"GF({field.q}) = GF({field.p}^{field.e})", f"modulus (constant first): {list(field.modulus)}"]
    if args.table:
        if field.q > 64:
            raise C4BookError("operation tables are printed only for q <= 64")
        t, elems = field.tables, range(field.q)
        add_table = [[t.add(a, b) for b in elems] for a in elems]
        mul_table = [[t.mul(a, b) for b in elems] for a in elems]
        artifact["add_table"] = add_table
        artifact["mul_table"] = mul_table
        lines.append("add:")
        lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in add_table]
        lines.append("mul:")
        lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in mul_table]
    return 0, artifact, lines


def _cmd_er(args, run) -> tuple[int, dict, list[str]]:
    from . import geometry

    g = geometry.er_graph(args.q)
    degrees = g.degrees()
    # er_graph checks that the absolute points are exactly the vertices of degree q
    absolutes = [v for v, d in enumerate(degrees) if d == args.q]
    histogram: dict[int, int] = {}
    for d in degrees:
        histogram[d] = histogram.get(d, 0) + 1
    artifact = {
        "q": args.q,
        "order": g.n,
        "size": g.edge_count(),
        "degree_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "absolute_points": absolutes,
    }
    run.attach_graph(artifact, g, args.out)
    lines = [
        f"ER_{args.q}: order {g.n}, size {g.edge_count()}",
        "degrees: " + ", ".join(f"{k}x{v}" for k, v in sorted(histogram.items())),
        f"absolute points ({len(absolutes)}): {absolutes}",
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    return 0, artifact, lines


def _cmd_check(args, run) -> tuple[int, dict, list[str]]:
    from . import graphcore

    g = run.read_graph(args.file)
    do_all = not (args.c4 or args.kst or args.friendship)
    artifact: dict = {"file": args.file, "order": g.n, "size": g.edge_count()}
    lines = [f"{args.file}: order {g.n}, size {g.edge_count()}"]
    if args.c4 or do_all:
        ok, witness = graphcore.is_c4_free(g)
        artifact["c4_free"] = ok
        artifact["c4_witness"] = list(witness) if witness else None
        lines.append(f"C4-free: {ok}" + (f" (witness {witness})" if witness else ""))
    if args.kst or do_all:
        chk = graphcore.kst_check(g)
        artifact["kst"] = chk._asdict()
        lines.append(
            f"pair counts: lhs={chk.lhs} rhs={chk.rhs_basic} p={chk.p} "
            f"refined={chk.rhs_refined} holds={chk.holds_basic}/{chk.holds_refined}"
        )
    if args.friendship or do_all:
        k = graphcore.is_friendship(g)
        artifact["friendship_k"] = k
        lines.append(f"friendship fan: {'k=' + str(k) if k is not None else 'no'}")
    return 0, artifact, lines


def _cmd_verify(args, run) -> tuple[int, dict, list[str]]:
    from . import ramsey

    g = run.read_graph(args.file)
    ok = ramsey.is_ramsey_witness(g, args.k, args.n)
    artifact = {"file": args.file, "order": g.n, "k": args.k, "n": args.n, "witness": ok}
    run.attach_graph(artifact, g)
    if ok:
        artifact["implied_bound"] = f"r(C4, B_{args.n}^({args.k})) >= {g.n + 1}"
        lines = [f"witness: r(C4, B_{args.n}^({args.k})) >= {g.n + 1}"]
        return 0, artifact, lines
    return 1, artifact, ["not a witness"]


def _cmd_certify(args, run) -> tuple[int, dict, list[str]]:
    from . import ramsey

    g = run.read_graph(args.file)
    try:
        cert = ramsey.certify_lower_bound(g, args.k, note=f"input file {args.file}")
    except NotC4Free as exc:
        return 1, {"file": args.file, "certified": False, "reason": str(exc)}, [f"refused: {exc}"]
    artifact = cert._asdict()
    run.attach_graph(artifact, g)
    return 0, artifact, [cert.implied_bound]


def _cmd_bounds(args, run) -> tuple[int, dict, list[str]]:
    from . import bounds

    if args.table:
        qmin, qmax, k, eps = args.table
        rows = bounds.theorem15_table(qmin, qmax, k, eps)
        artifact = {"table": rows, "k": k, "eps": str(eps)}
        lines = [f"q^2+t family, k={k}, eps={eps}:"] + [
            f"  q={r['q']:4d} t={r['t']:4d} n={r['n']:8d} r={r['r']:8d} ({r['parity_class']})"
            for r in rows
        ]
        return 0, artifact, lines
    if args.n is None or args.k is None:
        raise C4BookError("bounds needs --n and --k (or --table)")
    if (args.q is None) != (args.t is None):
        raise C4BookError("bounds needs both --q and --t, or neither")
    params = None if args.q is None else bounds.bounds_params(args.k, args.q, args.t, args.eps)
    if params is not None and params.n != args.n:
        raise C4BookError(f"--q {args.q} --t {args.t} describe n = {params.n}, not --n {args.n}")
    report = bounds.bound_report(args.n, args.k)
    artifact = report._asdict()
    upper = f"  upper {report.upper} ({report.upper_provenance})"
    lines = [
        f"r(C4, B_{args.n}^({args.k})): lower {report.lower} ({report.lower_provenance})",
        "  upper: none known" if report.upper is None else upper,
    ]
    if report.exact is not None:
        lines.append(f"  exact: {report.exact}")
    if params is not None:
        artifact["params"] = {
            "a_k": params.a_k,
            "b_k": params.b_k,
            "n": params.n,
            "ladder": list(params.ladder),
            "threshold_Q": str(params.threshold),
            "q_meets_threshold": params.q_meets_threshold,
            "t_in_range": params.t_in_range,
        }
        lines.append(f"  ladder N_1..N_k: {list(params.ladder)} (n = {params.n})")
    return 0, artifact, lines


def _cmd_er_subgraph(args, run) -> tuple[int, dict, list[str]]:
    from . import geometry, graphcore, search

    g = geometry.er_graph(args.q)
    try:
        verts = search.greedy_min_degree_subgraph(g, args.order, args.min_deg, args.budget)
    except BudgetExhausted as exc:
        return 1, {"found": False, "reason": str(exc), "budget": args.budget}, [str(exc)]
    if verts is None:
        return 1, {"found": False, "reason": "search space exhausted; no such subgraph"}, [
            "no qualifying induced subgraph exists"
        ]
    sub = graphcore.induced_subgraph(g, verts)
    artifact = {
        "found": True,
        "q": args.q,
        "order": sub.n,
        "min_degree": min(sub.degrees()),
        "vertices": list(verts),
    }
    run.attach_graph(artifact, sub, args.out)
    return 0, artifact, [f"found induced subgraph: order {sub.n}, min degree {min(sub.degrees())}"]


def _cmd_random_delete(args, run) -> tuple[int, dict, list[str]]:
    from . import search

    run.seeds["construction"] = args.seed
    try:
        sub, record, cert = search.random_delete_construction(
            args.n,
            args.k,
            seed=args.seed,
            m=args.m,
            c=args.c_const,
            alpha=args.alpha,
            max_attempts=args.max_attempts,
        )
    except (AsymptoticRegimeNotReached, AttemptsExhausted) as exc:
        artifact = {"found": False, "reason": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, AsymptoticRegimeNotReached) and exc.min_n is not None:
            artifact["min_n_for_defaults"] = exc.min_n
        return 1, artifact, [str(exc)]
    artifact = {"found": True, "run": record._asdict(), "certificate": cert._asdict()}
    run.attach_graph(artifact, sub, args.out)
    return 0, artifact, [
        f"order {sub.n}, min degree {min(sub.degrees())}, attempts {record.attempts}",
        cert.implied_bound,
    ]


def _cmd_search_exact(args, run) -> tuple[int, dict, list[str]]:
    from . import search
    # canon and ramsey are compiled inside the enumeration.  Imported here
    # instead, they no longer lower the op's peak RSS, now that search
    # compiles no other route: medians of 24 alternating runs at N = 11 and
    # 10 were 15 722 and 15 732 KiB imported here, 15 704 and 15 728 KiB not.
    from .graphcore import Graph

    result = search.exhaust_ramsey(args.order, args.k, args.n, jobs=args.jobs)
    if isinstance(result, Graph):
        artifact = {
            "witness_found": True,
            "order": result.n,
            "k": args.k,
            "n": args.n,
            "implied_bound": f"r(C4, B_{args.n}^({args.k})) >= {result.n + 1}",
        }
        run.attach_graph(artifact, result, args.out)
        return 0, artifact, [artifact["implied_bound"]]
    artifact = {"witness_found": False, "exhaustion_proof": result._asdict()}
    artifact["implied_bound"] = f"r(C4, B_{args.n}^({args.k})) <= {args.order}"
    return 1, artifact, [
        f"exhausted {result.graphs_examined} graphs: {artifact['implied_bound']}"
    ]


def _cmd_search_gq(args, run) -> tuple[int, dict, list[str]]:
    from . import search

    run.seeds["probe"] = args.seed
    found = search.probe_script_Gq(args.q, budget=args.budget, seed=args.seed)
    if found is None:
        artifact = {
            "witness_found": False,
            "q": args.q,
            "budget": args.budget,
            "note": "budget exhausted; says nothing about nonexistence",
        }
        return 1, artifact, ["no witness found within budget"]
    artifact = {
        "witness_found": True,
        "q": args.q,
        "order": found.n,
        "pages": args.q * args.q - args.q + 1,
    }
    run.attach_graph(artifact, found, args.out)
    return 0, artifact, [f"witness on {found.n} vertices found and re-verified"]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = _Run(argv)
    try:
        code, artifact, lines = args.handler(args, run)
    except (C4BookError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.emit(artifact, args.format, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
