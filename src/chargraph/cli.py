"""Command-line surface: construct graphs, analyze n-exactness, search
exponents, run the verification suite, and export JSON/DOT documents.

Exit codes: 0 success (and every verification PASS), 1 verification FAIL,
2 usage error, 3 range or size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from typing import Any

from .errors import ChargraphError, OutOfRange, TooLarge
from .exactness import CATALOG, VerificationRecord, check_n_exact, verify_hamilton_characterization
from .graphs import CycleWitness, PrimeGraph, connected_components
from .models import DegreeSet, graph_from_degrees, psl2_graph, suzuki_graph
from .search import find_alphas, sweep_models

DEFAULT_SUITE_NS = (4, 5, 6, 7)
# the search --k choices, "n-3" -> -3 and on, in catalog order
K_OFFSETS = {f"n{dk}": dk for dk, _, _ in CATALOG.values()}


def graph_to_document(g: PrimeGraph, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.sorted_edges()],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def document_to_graph(doc: Any) -> tuple[PrimeGraph, dict[str, Any]]:
    """The graph and metadata of a document whose shape is checked here; PrimeGraph checks its elements."""
    if not isinstance(doc, dict):
        raise ChargraphError("graph document must be a JSON object")
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list):
        raise ChargraphError('"vertices" must be a list of integers')
    if not isinstance(edges, list):
        raise ChargraphError('"edges" must be a list of 2-element integer lists')
    metadata = doc.get("metadata")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ChargraphError('"metadata" must be an object when present')
    return PrimeGraph(vertices, edges), metadata


def graph_to_dot(g: PrimeGraph) -> str:
    lines = ["graph primes {"]
    lines += [f"  {v};" for v in g.vertices]
    lines += [f"  {a} -- {b};" for a, b in g.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _encode(obj: Any) -> Any:
    """A cycle as its vertices in order, any other library result as its own fields."""
    if isinstance(obj, CycleWitness):
        return obj.vertices_in_order
    return vars(obj)


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_encode) + "\n"


def _emit_graph(g: PrimeGraph, metadata: dict[str, Any], fmt: str, quiet: bool, summary: str) -> int:
    if fmt == "dot":
        sys.stdout.write(graph_to_dot(g))
    else:
        sys.stdout.write(_dump_json(graph_to_document(g, metadata)))
    if not quiet:
        print(summary, file=sys.stderr)
    return 0


def _cmd_psl2(args: argparse.Namespace) -> int:
    g = psl2_graph(args.q)
    components = [list(c) for c in connected_components(g)]
    metadata = {"model": f"PSL2({args.q})", "components": components}
    return _emit_graph(
        g, metadata, args.format, args.quiet,
        f"character graph of PSL2({args.q}): {g.order} vertices, {g.size} edges, {len(components)} components",
    )


def _cmd_suzuki(args: argparse.Namespace) -> int:
    g = suzuki_graph(args.m)
    q2 = 2 ** (2 * args.m + 1)
    metadata = {"model": f"Suzuki(m={args.m})", "q_squared": q2}
    return _emit_graph(
        g, metadata, args.format, args.quiet,
        f"character graph of the Suzuki group with q^2 = {q2}: {g.order} vertices, {g.size} edges",
    )


def _read_input(path: str, parse: Callable[[str], Any] = str) -> Any:
    """The UTF-8 text of an input file, parsed; text it cannot decode or
    parse is a usage error, not a crash."""
    try:
        with open(path, encoding="utf-8") as file:
            return parse(file.read())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ChargraphError(str(exc)) from None


def _parse_degree_file(path: str) -> DegreeSet:
    degrees = []
    for lineno, raw in enumerate(_read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            degrees.append(int(line))
        except ValueError:
            digits = line[1:] if line[0] in "+-" else line
            # int() refuses a decimal string only past the int-to-str digit limit
            problem = (
                f"more digits than Python's int-to-str limit ({sys.get_int_max_str_digits()})"
                if digits.isdecimal()
                else "not an integer"
            )
            echo = repr(line) if len(line) <= 40 else f"{line[:20]!r}... ({len(line)} characters)"
            raise ChargraphError(f"{path}:{lineno}: {problem}: {echo}") from None
    return DegreeSet(degrees)


def _cmd_degrees(args: argparse.Namespace) -> int:
    degrees = _parse_degree_file(args.file)
    g = graph_from_degrees(degrees)
    metadata = {"source": "degrees", "degree_count": len(degrees.degrees)}
    return _emit_graph(
        g, metadata, args.format, args.quiet,
        f"graph of {len(degrees.degrees)} degrees: {g.order} vertices, {g.size} edges",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, metadata = document_to_graph(_read_input(args.input, json.loads))
    tagged = args.character_model or bool(metadata.get("model"))
    report = check_n_exact(g, args.n, character_model=tagged)
    sys.stdout.write(_dump_json(report))
    if not args.quiet:
        verdict = "n-exact" if report.verdict else "not n-exact"
        print(
            f"n = {args.n}: {verdict} ({report.extremal_class}), order {report.order}",
            file=sys.stderr,
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    k_target = args.n + K_OFFSETS[args.k]
    result = find_alphas(args.n, k_target, (2, args.alpha_max))
    sys.stdout.write(_dump_json(result))
    if not args.quiet:
        hits = [r.alpha for r in result.realizations]
        print(
            f"k = {k_target}: {len(hits)} realization(s) in alpha {result.alpha_range}: {hits}; "
            f"{len(result.near_misses)} near miss(es)",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not args.suite:
        raise ChargraphError("verify requires --suite")
    alpha_range = (2, args.alpha_max)
    ns = [args.n] if args.n is not None else list(DEFAULT_SUITE_NS)
    records: list[VerificationRecord] = []
    for n in ns:
        records.extend(sweep_models(n, alpha_range))
    records += map(verify_hamilton_characterization, range(alpha_range[0], alpha_range[1] + 1))
    failures = [r for r in records if not r.passed]
    payload = {
        "n_values": ns,
        "alpha_range": alpha_range,
        "records": records,
        "failures": len(failures),
        "passed": not failures,
    }
    sys.stdout.write(_dump_json(payload))
    if not args.quiet:
        for n in ns:
            n_records = [r for r in records if r.details.get("n") == n and r.check == "order_bound"]
            n_failures = [r for r in n_records if not r.passed]
            print(f"order bound, n = {n}: {len(n_records)} models, {len(n_failures)} FAIL", file=sys.stderr)
        ham = [r for r in records if r.check == "hamilton_characterization"]
        print(f"hamilton characterization, f in {list(alpha_range)}: {sum(not r.passed for r in ham)} FAIL", file=sys.stderr)
        for record in failures:
            print(f"FAIL: {record.check}: {record.description}", file=sys.stderr)
        print("PASS" if not failures else f"FAIL ({len(failures)} record(s))", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_export(args: argparse.Namespace) -> int:
    g, metadata = document_to_graph(_read_input(args.input, json.loads))
    return _emit_graph(g, metadata, args.format, args.quiet, f"{g.order} vertices, {g.size} edges")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after it.  Parsing
    leaves it unchanged, and help and errors go to the sys.stdout/sys.stderr
    of each call, so repeated run() calls in one process behave as fresh ones."""
    parser = argparse.ArgumentParser(
        prog="chargraph",
        description="Prime-divisor character graphs: construction, n-exactness analysis, extremal search and verification.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the human-readable summary on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psl2", help="character graph of PSL2(q)")
    p.add_argument("q", type=int, help="prime power >= 4")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_psl2)

    p = sub.add_parser("suzuki", help="character graph of the Suzuki group with q^2 = 2^(2m+1)")
    p.add_argument("m", type=int, help="integer >= 1")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_suzuki)

    p = sub.add_parser("degrees", help="graph of a degree file (one integer per line, # comments)")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_degrees)

    p = sub.add_parser("analyze", help="n-exactness report for a graph document")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True, help="graph document (JSON)")
    p.add_argument(
        "--character-model",
        action="store_true",
        help="treat the graph as a character-graph model (enables the MaxExtremal class)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="exponents alpha realizing a prime-divisor count target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", choices=tuple(K_OFFSETS), required=True)
    p.add_argument("--alpha-max", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", action="store_true", help="verify the constructed model space")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha-max", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="re-emit a graph document as JSON or DOT")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "dot"), required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OutOfRange, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ChargraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
