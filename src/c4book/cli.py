"""Command-line entry point wiring every module together.

Exit codes: 0 = claim verified / witness found, 1 = claim refuted or no
witness within budget (the JSON says which), 2 = usage or input error.
All numeric output is exact; artifacts are JSON with embedded graph6
strings, and identical invocations with identical seeds are byte-identical
(wall time lives in a separate "timing" section).

The command line is one table, `_COMMANDS`: each command, its words joined
by spaces, maps to its handler, help line and option rows (positionals
included), and `_parse` reads argv against it, so no op loads argparse.
Global options (`--format`, `--jobs`) come before the command words and a
command's own options after them, as `--opt value` or `--opt=value`;
options are not abbreviated.  `-h`/`--help` prints the help of its level
and exits 0; a usage error prints a usage line and an `error:` line and
exits 2.

Each handler imports the modules it runs, so a process loads only those.
The same holds for fractions and hashlib: a Fraction is built only for the
options that take one, and a digest only for the files that are hashed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from types import SimpleNamespace
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
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))


def _budget_int(text: str) -> int:
    """A search limit: a positive whole count, scientific notation allowed."""
    try:
        value = int(text)  # exact at any size; a float keeps only 53 bits
    except ValueError:
        try:
            number = float(text)
            value = int(number)
        except (OverflowError, ValueError):
            raise ValueError(f"not a finite number: {text!r}") from None
        if value != number:
            raise ValueError(f"not a whole number: {text!r}")
    if value < 1:
        raise ValueError(f"must be >= 1, got {text!r}")
    return value


def _fraction(text: str):
    """An exact rational such as "1/2" or "0.3"."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None


def _table(qmin, qmax, k, eps):
    """--table QMIN QMAX K EPS as three ints and an exact Fraction."""
    return int(qmin), int(qmax), int(k), _fraction(eps)


def _jobs(text: str) -> int:
    """A worker count of at least 1, refused below that for every command."""
    value = int(text)
    if value < 1:
        raise ValueError(f"jobs must be >= 1, got {value}")
    return value


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'table', 'json')")
    return text


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
        elems = range(field.q)
        for op in ("add", "mul"):
            table = artifact[f"{op}_table"] = [[getattr(field.tables, op)(a, b) for b in elems] for a in elems]
            lines += [f"{op}:"] + ["  " + " ".join(f"{x:3d}" for x in row) for row in table]
    return 0, artifact, lines


def _cmd_er(args, run) -> tuple[int, dict, list[str]]:
    from . import geometry

    g = geometry.er_graph(args.q)
    degrees = g.degrees()
    # er_graph checks that the absolute points are exactly the vertices of degree q
    absolutes = [v for v, d in enumerate(degrees) if d == args.q]
    histogram = sorted(Counter(degrees).items())
    artifact = {
        "q": args.q,
        "order": g.n,
        "size": g.edge_count(),
        "degree_histogram": {str(k): v for k, v in histogram},
        "absolute_points": absolutes,
    }
    run.attach_graph(artifact, g, args.out)
    lines = [
        f"ER_{args.q}: order {g.n}, size {g.edge_count()}",
        "degrees: " + ", ".join(f"{k}x{v}" for k, v in histogram),
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
            max_attempts=args.max_attempts,
        )
    except (AsymptoticRegimeNotReached, AttemptsExhausted) as exc:
        artifact = {"found": False, "reason": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, AsymptoticRegimeNotReached):
            from . import bounds

            artifact["min_n_for_defaults"] = bounds.MIN_N_DEFAULT
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


def _opt(name, convert=int, default=..., metavar=None, dest=None):
    """One row of an option table: (name, dest, converter, default, metavar).

    A name without "--" is a positional.  The metavar names the option's
    values, one word each, and so gives its arity; "" makes a flag that
    stores True.  The converter takes the value texts.  A text default
    passes through the converter too, None and False stay as they are, and
    ... makes the option required.
    """
    dest = dest or name.lstrip("-").replace("-", "_")
    return name, dest, convert, default, dest.upper() if metavar is None else metavar


_FILE, _OUT = _opt("file", str), _opt("--out", str, None, "FILE.g6")

# Each command, "" for the words before any command, maps to its handler,
# its help line and its option rows; only a leaf has a handler.
_COMMANDS = {
    "": (None, "Construct and verify extremal graphs for r(C4, B_n^(k)); --jobs sets a search's workers.",
         _opt("--format", _format, "table", "{table,json}"), _opt("--jobs", _jobs, "1")),
    "field": (_cmd_field, "finite field info; --table adds operation tables (q <= 64)",
              _opt("p"), _opt("e"), _opt("--table", None, False, "")),
    "er": (_cmd_er, "polarity graph of PG(2, q)", _opt("q"), _OUT),
    "check": (_cmd_check, "structural checks on a graph6 file",
              _FILE, *(_opt(flag, None, False, "") for flag in ("--c4", "--kst", "--friendship"))),
    "verify": (_cmd_verify, "is FILE a (C4, B_n^(k))-Ramsey witness?", _FILE, _opt("--k"), _opt("--n")),
    "certify": (_cmd_certify, "lower-bound certificate for FILE", _FILE, _opt("--k")),
    "bounds": (_cmd_bounds, "bound report; --table lists predicted r = q^2 + t over admissible (q, t)",
               *(_opt(flag, int, None) for flag in ("--n", "--k", "--q", "--t")),
               _opt("--eps", _fraction, "1/2"), _opt("--table", _table, None, "QMIN QMAX K EPS")),
    "construct": (None, "build extremal graphs"),
    "construct er-subgraph": (_cmd_er_subgraph, "induced subgraph of ER_q with a degree floor",
                              _opt("--q"), _opt("--order"), _opt("--min-deg"),
                              _opt("--budget", _budget_int, "1e7"), _OUT),
    "construct random-delete": (_cmd_random_delete,
                                "randomized thinning of ER_p; --m sets the degree floor, "
                                "floor(sqrt(n) - 6 n^0.2625) by default",
                                _opt("--n"), _opt("--k"), _opt("--m", int, None), _opt("--seed", int, "0"),
                                _opt("--max-attempts", _budget_int, "1000"), _OUT),
    "search": (None, "exhaustive or heuristic witness search"),
    "search exact": (_cmd_search_exact, "decide r(C4, B_n^(k)) vs a given order",
                     _opt("--k"), _opt("--n"), _opt("--N", dest="order"), _OUT),
    "search gq": (_cmd_search_gq, "hunt for a member of the q^2+q+3 witness family",
                  _opt("--q"), _opt("--budget", _budget_int, "1e6"), _opt("--seed", int, "0"), _OUT),
}


class _UsageError(Exception):
    """argv does not fit the command table; args are (command, message)."""


def _help(command: str) -> list[str]:
    """The usage line of a command, its help line, and one line per subcommand."""
    _, about, *options = _COMMANDS[command]
    subs = [key for key in _COMMANDS if key and key.rpartition(" ")[0] == command]
    words = ["usage: c4book", *command.split()]
    for name, _, _, default, metavar in options:
        word = f"{name} {metavar}".rstrip() if name[0] == "-" else name
        words.append(word if default is ... else f"[{word}]")
    if subs:
        words.append("COMMAND ...")
    return [" ".join(words), "", about] + [f"  {key:25}{_COMMANDS[key][1]}" for key in subs]


def _parse(argv: list[str]):
    """(handler, args) for argv, or (None, None) once -h/--help has printed its level's help.

    Each level reads its own options: the global ones come before the first
    command word, a command's own after the last.  A token that starts with
    "--" is an option, written "--opt value" or "--opt=value", and takes the
    next tokens as its values; any other token, "-3" included, is a value.
    Raises _UsageError.
    """
    command, args, todo = "", SimpleNamespace(), argv[::-1]
    while True:
        handler, _, *options = _COMMANDS[command]
        rows = {row[0]: row for row in options}
        positionals = [name for name in rows if name[0] != "-"]
        for _, dest, convert, default, _ in options:
            setattr(args, dest, convert(default) if isinstance(default, str) else default)
        while todo and (handler or todo[-1][:1] == "-"):
            token = todo.pop()
            if token in ("-h", "--help"):
                print("\n".join(_help(command)))
                return None, None
            if token[:2] == "--":
                name, eq, text = token.partition("=")
                if name not in rows:
                    raise _UsageError(command, f"unrecognized option {name}")
                if eq:
                    if not rows[name][4]:
                        raise _UsageError(command, f"argument {name}: takes no value")
                    todo.append(text)  # read below as the first value
            elif positionals:
                name = positionals.pop(0)
                todo.append(token)  # read back below as the positional's value
            else:
                raise _UsageError(command, f"unrecognized argument {token!r}")
            _, dest, convert, _, metavar = rows[name]
            arity = len(metavar.split())
            if len(todo) < arity:
                raise _UsageError(command, f"argument {name}: expected {arity} value(s)")
            try:
                setattr(args, dest, convert(*[todo.pop() for _ in range(arity)]) if arity else True)
            except ValueError as exc:
                raise _UsageError(command, f"argument {name}: {exc}") from None
        missing = [name for name, dest, *_ in options if getattr(args, dest) is ...]
        if missing:
            raise _UsageError(command, "the following arguments are required: " + ", ".join(missing))
        if handler:
            return handler, args
        word = todo.pop() if todo else ""
        if not word or f"{command} {word}".lstrip() not in _COMMANDS:
            raise _UsageError(command, f"{word!r} is not a command" if word else "a command is required")
        command = f"{command} {word}".lstrip()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        handler, args = _parse(argv)
    except _UsageError as exc:
        command, message = exc.args
        print(_help(command)[0], f"c4book {command}".rstrip() + f": error: {message}", sep="\n", file=sys.stderr)
        return 2
    if handler is None:
        return 0
    run = _Run(argv)
    try:
        code, artifact, lines = handler(args, run)
    except (C4BookError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.emit(artifact, args.format, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
