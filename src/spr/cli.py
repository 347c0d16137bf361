"""Command-line front end.

Predicates exit 0 when they hold and 1 when they do not (printing a witness
where one exists); malformed input, a saturation over its cap, input nested
past the recursion limit and running out of memory exit 2 with a message.
``--json`` switches every command to a single machine-readable object on
stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .decision import (
    CapExceeded,
    _bound_exponents,
    filter_grammar,
    inclusion,
    intersection_empty,
)
from .grammar import (
    GrammarError,
    format_grammar,
    is_alternative,
    is_normalized,
    normalize,
    parse_grammar,
    to_alternative,
    validate_regular,
)
from .oracle import gen_worstcase, language_upto
from .recognizer import build_ctx, member, reachable_profiles
from .spgraph import ParseError, format_graph, graph_order, parse_graph


def _read(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _load(path: str):
    return parse_grammar(_read(path))


def _emit(args, data: dict, lines) -> None:
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verdict(args, result, true_line: str, false_line: str) -> int:
    witness = None if result.witness is None else format_graph(result.witness)
    data = {"holds": result.holds, "witness": witness, "stats": result.stats}
    if result.holds:
        lines = [true_line]
    else:
        lines = [false_line.format(witness=witness)]
    _emit(args, data, lines)
    return 0 if result.holds else 1


def _cmd_check(args) -> int:
    g = _load(args.grammar)
    rep = validate_regular(g)
    data = {
        "regular": rep.ok,
        "normalized": is_normalized(g),
        "alternative": is_alternative(g),
        "nonterminals": len(g.pnames) + len(g.snames),
        "rules": len(g.rules),
        "offenders": [reason for _, reason in rep.offenders],
    }
    lines = [
        f"regular: {rep.ok}",
        f"normalized: {data['normalized']}",
        f"alternative: {data['alternative']}",
        f"nonterminals: {data['nonterminals']}, rules: {data['rules']}",
    ]
    lines += [f"  not regular: {reason}" for reason in data["offenders"]]
    _emit(args, data, lines)
    return 0 if rep.ok else 1


def _cmd_normalize(args) -> int:
    g = normalize(_load(args.grammar))
    if args.alternative:
        g = to_alternative(g)
    text = format_grammar(g)
    _emit(args, {"grammar": text}, [text.rstrip("\n")])
    return 0


def _cmd_member(args) -> int:
    g = _load(args.grammar)
    graph = parse_graph(_read(args.term) if args.term == "-" else args.term)
    stats: dict = {}
    ok = member(graph, g, stats=stats)
    data = {"member": ok, "stats": stats}
    if args.json:  # only the JSON report prints the graph back
        data["graph"] = format_graph(graph)
    _emit(args, data, [str(ok).lower()])
    return 0 if ok else 1


def _cmd_intersect(args) -> int:
    grammars = [_load(p) for p in args.grammars]
    result = intersection_empty(grammars, cap=args.cap)
    return _verdict(args, result, "true", "false: witness {witness}")


def _cmd_include(args) -> int:
    left, right = _load(args.left), _load(args.right)
    result = inclusion(left, right, cap=args.cap)
    return _verdict(args, result, "holds", "fails: witness {witness}")


def _cmd_filter(args) -> int:
    left, right = _load(args.left), _load(args.right)
    mode = "reject" if args.reject else "accept"
    g = filter_grammar(left, right, mode=mode, cap=args.cap)
    text = format_grammar(g)
    # every split nonterminal derives its value's witness: empty iff no axiom
    _emit(args, {"grammar": text, "empty": not g.axioms}, [text.rstrip("\n")])
    return 0


def _cmd_enumerate(args) -> int:
    g = _load(args.grammar)
    graphs = sorted(language_upto(g, args.edges), key=graph_order)
    _emit(
        args,
        {"count": len(graphs), "graphs": [format_graph(x) for x in graphs]},
        (format_graph(x) for x in graphs),
    )
    return 0


def _cmd_stats(args) -> int:
    g = _load(args.grammar)
    ctx = build_ctx(g)
    effort: dict = {}
    reach = reachable_profiles(ctx, cap=args.cap, stats=effort)
    a, b = _bound_exponents(ctx)
    bits = max(a, b) + 1 + (a == b)
    # the bound 2^a + 2^b can take gigabytes: it is built only when its text
    # fits the interpreter's int-to-text digit limit (none before Python
    # 3.11, or at 0), which it cannot once it reaches 2^(4 * limit) > 10^limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    fits = not limit or bits <= 4 * limit and (1 << a) + (1 << b) < 10**limit
    bound = (1 << a) + (1 << b) if fits else None
    data = {
        "serial_profiles": reach.n_serial,
        "parallel_profiles": reach.n_parallel,
        "saturated": reach.saturated,
        "bound": bound,
        "bound_bits": bits,
        "working_nonterminals": len(ctx.grammar.pnames) + len(ctx.grammar.snames),
        "stats": effort,
    }
    lines = [
        f"serial profiles: {reach.n_serial}",
        f"parallel profiles: {reach.n_parallel}",
        f"saturated: {reach.saturated}",
        f"compositions: {effort['compositions']}",
        f"table hits: {effort['table_hits']}",
        f"profile bound: {bound or f'< 2^{bits}'}",
    ]
    _emit(args, data, lines)
    return 0


def _cmd_gen_worstcase(args) -> int:
    k, cap = args.k, args.cap
    # the grammar has 7 * 2^(k + 2) + 1 rules: weigh them against the cap
    # before building any (the first test spares a huge power of two)
    if k >= 2 and (k + 2 >= cap.bit_length() or 7 * 2 ** (k + 2) + 1 > cap):
        rules = 7 * 2 ** (k + 2) + 1 if k < 62 else f"7 * 2^{k + 2} + 1"
        raise ValueError(f"gen-worstcase -k {k} makes {rules} rules, more than the cap of {cap}")
    text = format_grammar(gen_worstcase(k))
    _emit(args, {"grammar": text}, [text.rstrip("\n")])
    return 0


def run(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--cap",
        type=int,
        default=1_000_000,
        help="abort saturations beyond this many states, and gen-worstcase "
        "beyond this many rules (default 1000000)",
    )
    ap = argparse.ArgumentParser(
        prog="spr",
        description="decide membership, emptiness, intersection and inclusion "
        "for series-parallel graph languages given by regular grammars",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="validate a grammar file")
    p.add_argument("grammar", help="grammar file, or - for stdin")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("normalize", help="print the normalized grammar")
    p.add_argument("grammar")
    p.add_argument("--alternative", action="store_true", help="also reroute edge rules")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("member", help="is the graph in the language?")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-t", "--term", required=True, help="graph term, or - for stdin")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("empty", help="is the language empty?")
    p.add_argument("grammars", nargs=1, metavar="grammar")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("intersect", help="is the intersection of the languages empty?")
    p.add_argument("grammars", nargs="+")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("include", help="is the left language included in the right?")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.set_defaults(handler=_cmd_include)

    p = sub.add_parser("filter", help="grammar for the left graphs the right accepts")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("--reject", action="store_true", help="keep rejected graphs instead")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("enumerate", help="list all language graphs up to a size")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-n", "--edges", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("stats", help="profile reachability statistics")
    p.add_argument("grammar")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("gen-worstcase", help="emit the k-th string-matching grammar")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_gen_worstcase)

    # argparse would read the value of an unknown option before the
    # subcommand as the subcommand, so those options are looked for first
    argv = sys.argv[1:] if argv is None else list(argv)
    head = list(itertools.takewhile(lambda tok: tok not in sub.choices, argv))
    try:
        unknown = [tok for tok in common.parse_known_args(head)[1] if tok.startswith("-")]
    except argparse.ArgumentError:
        unknown = []  # a bad value of a known option: the full parse reports it
    if unknown and not {"-h", "--help"} & set(unknown):
        ap.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = ap.parse_args(argv)
    if args.cap < 0:
        ap.error(f"argument --cap: must not be negative, got {args.cap}")
    if getattr(args, "edges", 0) < 0:
        ap.error(f"argument -n/--edges: must not be negative, got {args.edges}")
    try:
        return args.handler(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, GrammarError, OSError, ValueError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # report below, once the traceback and the handler's data are freed
    print("error: out of memory (try a smaller --cap)", file=sys.stderr)
    return 2


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    entry()
