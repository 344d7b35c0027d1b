"""Command-line front end.

Subcommands: grid, ideal, matroid, verify, secant, rigidity.  Text artifacts
use the documented serialization formats; JSON artifacts additionally echo
the seed and budgets.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 inconclusive (budget-gated step exhausted its budget, or random draws kept
disagreeing where a generic answer was required).

All randomness flows from --seed through named child generators (SHA-256 of
"seed/label"), so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .cimodel import ci_ideal, parse_ci_file
from .hypergraph import GridSpec, Hypergraph, grid_hypergraph, grid_matrix_text, hypergraph_ideal
from .ideals import Ideal, ideal_to_cas, ideal_to_text
from .linalg import content_lines, matrix_from_text
from .matroid import PolyMap, algebraic_matroid, arrangement_signature, matroid_from_matrix, realize_grid_matroid
from .report import EXIT_CODES, WitnessReport, overall_status
from .sampling import GenericityError, child_rng
from .secrig import Framework, generic_rigidity_check, integer_framework, rigidity_matrix, rigidity_rank, secant_dimension, segre_tangent_model
from .verify import VERIFICATIONS

USAGE_EXIT = 2
INCONCLUSIVE_EXIT = 3
# `verify` flag -> the campaign parameter it sets; the grid flags set `spec`.
VERIFY_FLAGS = {"--trials": "trials", "--max-pairs": "max_pairs", "--max-degree": "max_degree"}
GRID_FLAGS = ("k", "l", "s", "t", "d")


def _load_config(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into long options right after the subcommand.
    Explicit flags win: argparse keeps an option's last value, and every
    explicit flag, in any spelling (`--k=2`, `--max-p 30`), comes later."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    extra: list[str] = []
    for line in content_lines(Path(path).read_text()):
        key, eq, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not eq or not key:
            raise ValueError(f"config line {line!r} in {path} is not `key = value`")
        value = value.strip()
        flag = f"--{key}"
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                extra.append(flag)
        else:
            extra.extend([flag, value])
    return rest[:1] + extra + rest[1:]


def _keywords(campaign) -> tuple[str, ...]:
    """A campaign's keyword parameters, read from its code object; a wrapper
    made with `functools.wraps` (a tracer's) is followed to the campaign."""
    while hasattr(campaign, "__wrapped__"):
        campaign = campaign.__wrapped__
    code = campaign.__code__
    return code.co_varnames[code.co_posonlyargcount : code.co_argcount + code.co_kwonlyargcount]


def _grid_spec(args) -> GridSpec:
    missing = [g for g in GRID_FLAGS if getattr(args, g) is None]
    if missing:
        raise SystemExit(f"missing grid flags: {', '.join('--' + m for m in missing)}")
    return GridSpec(k=args.k, l=args.l, s=args.s, t=args.t, d=args.d)


def _emit(args, stem: str, text: str, payload: dict | str) -> None:
    """The one writer: <stem>.txt and <stem>.json under --out, else the JSON
    on stdout under --json, else the text.  A str payload is JSON already
    rendered (a report's `to_json`); a dict is dumped with sorted keys."""
    blob = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out, stem).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out, f"{stem}.txt").write_text(text)
        Path(args.out, f"{stem}.json").write_text(blob)
    elif args.json:
        sys.stdout.write(blob)
    else:
        sys.stdout.write(text)


def _emit_report(args, report: WitnessReport) -> int:
    _emit(args, "report", report.to_text(), report.to_json())
    return report.exit_code


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    p.add_argument("--out", help="directory for output artifacts")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, help="column edge size")
    p.add_argument("--t", type=int, help="row edge size")
    p.add_argument("--k", type=int, help="grid rows")
    p.add_argument("--l", type=int, help="grid columns")
    p.add_argument("--d", type=int, help="ambient matrix row count")


# Built once: `main` may run many times in one process, and every parser is
# some 450 objects in reference cycles that wait for the cyclic collector.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cigrid", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="print a k x l integer grid or its hypergraph edges")
    _add_grid_flags(p_grid)
    p_grid.add_argument("--edges", action="store_true", help="print the grid hypergraph instead of the matrix")
    _add_common(p_grid)

    p_ideal = sub.add_parser("ideal", help="generators of a hypergraph or CI ideal")
    _add_grid_flags(p_ideal)
    p_ideal.add_argument("--grid", action="store_true", help="use the grid hypergraph given by --s/--t/--k/--l/--d")
    p_ideal.add_argument("--ci", help="CI model file (variables line, then statements)")
    p_ideal.add_argument("--hypergraph", help="hypergraph file (n, then one edge per line)")
    p_ideal.add_argument("--format", choices=["text", "cas"], default="text")
    _add_common(p_ideal)

    p_mat = sub.add_parser("matroid", help="rank, circuits, and signatures of matroids")
    _add_grid_flags(p_mat)
    p_mat.add_argument("--matrix", help="exact matrix file")
    p_mat.add_argument("--grid", action="store_true", help="realize the grid matroid given by the grid flags")
    p_mat.add_argument("--parametrization", help="polynomial map file (params line, then coord lines)")
    _add_common(p_mat)

    p_verify = sub.add_parser(
        "verify", help="run a named verification campaign, or all of them",
        epilog="A flag the campaign does not take is a usage error; `all` gives each flag to the campaigns that take it.",
    )
    p_verify.add_argument("name", choices=[*sorted(VERIFICATIONS), "all"])
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--max-pairs", type=int)
    p_verify.add_argument("--max-degree", type=int)
    _add_grid_flags(p_verify)
    _add_common(p_verify)

    p_sec = sub.add_parser("secant", help="stacked-tangent secant dimension of rank-one matrices")
    p_sec.add_argument("--m", type=int, required=True)
    p_sec.add_argument("--n", type=int, required=True)
    p_sec.add_argument("--k", type=int, required=True)
    _add_common(p_sec)

    p_rig = sub.add_parser("rigidity", help="rigidity of a complete graph or of a framework file")
    p_rig.add_argument("--n", type=int, help="vertex count (complete-graph check)")
    p_rig.add_argument("--d", type=int, help="configuration dimension (complete-graph check)")
    p_rig.add_argument("--framework", help="framework file: `n d` header, coordinates, edges")
    _add_common(p_rig)

    return parser


def cmd_grid(args) -> int:
    if args.k is None or args.l is None:
        raise SystemExit("grid needs --k and --l")
    if args.edges:
        if args.s is None or args.t is None:
            raise SystemExit("--edges needs --s and --t")
        spec = GridSpec(k=args.k, l=args.l, s=args.s, t=args.t)
        H = grid_hypergraph(spec)
        text = H.to_text()
        payload = {"n": H.n, "edges": [sorted(e) for e in H.edges], "spec": vars(spec)}
        _emit(args, "edges", text, payload)
    else:
        text = grid_matrix_text(args.k, args.l)
        payload = {"k": args.k, "l": args.l, "matrix": [[int(x) for x in row.split()] for row in text.splitlines()]}
        _emit(args, "grid", text, payload)
    return 0


def _ideal_from_args(args) -> Ideal:
    sources = [bool(args.grid), args.ci is not None, args.hypergraph is not None]
    if sum(sources) != 1:
        raise SystemExit("ideal needs exactly one of --grid, --ci, --hypergraph")
    if args.grid:
        spec = _grid_spec(args)
        return hypergraph_ideal(grid_hypergraph(spec), spec.d)
    if args.ci:
        model, statements = parse_ci_file(Path(args.ci).read_text())
        return ci_ideal(statements, model)
    H = Hypergraph.from_text(Path(args.hypergraph).read_text())
    if args.d is None:
        raise SystemExit("--hypergraph needs --d")
    return hypergraph_ideal(H, args.d)


def cmd_ideal(args) -> int:
    ideal = _ideal_from_args(args)
    if args.format == "cas":
        text = ideal_to_cas(ideal)
        stem = "generators_cas"
    else:
        text = ideal_to_text(ideal)
        stem = "generators"
    payload = {
        "variables": list(ideal.ring.names),
        "generators": ideal.generator_texts(),
        "count": len(ideal.generators),
    }
    _emit(args, stem, text, payload)
    return 0


def cmd_matroid(args) -> int:
    sources = [args.matrix is not None, bool(args.grid), args.parametrization is not None]
    if sum(sources) != 1:
        raise SystemExit("matroid needs exactly one of --matrix, --grid, --parametrization")
    labels = None
    if args.matrix:
        matrix = matrix_from_text(Path(args.matrix).read_text())
        m = matroid_from_matrix(matrix)
        source = {"matrix": args.matrix}
    elif args.grid:
        spec = _grid_spec(args)
        matrix = realize_grid_matroid(spec, child_rng(args.seed, "cli/grid-matroid"))
        m = matroid_from_matrix(matrix)
        source = {"grid": vars(spec), "seed": args.seed}
    else:
        pm = PolyMap.parse(Path(args.parametrization).read_text())
        m = algebraic_matroid(pm, child_rng(args.seed, "cli/algebraic-matroid"))
        matrix = None
        labels = pm.display_labels()
        source = {"parametrization": args.parametrization, "seed": args.seed}

    circuits = m.circuits()
    full_rank = m.full_rank()
    lines = [f"ground {len(m.ground)}", f"rank {full_rank}"]
    for c in circuits:
        lines.append("circuit " + " ".join(str(e) for e in sorted(c)))
    if labels:
        lines.append("coordinates " + " ".join(labels))
    signature = None
    if matrix is not None and len(matrix) == 3:
        signature = arrangement_signature(matrix)
        lines.append("signature " + signature.to_text())
    text = "\n".join(lines) + "\n"
    payload = {
        "ground": len(m.ground),
        "rank": full_rank,
        "circuits": [sorted(c) for c in circuits],
        "source": source,
    }
    if labels:
        payload["coordinates"] = list(labels)
    if signature is not None:
        payload["signature"] = {
            "points": signature.points,
            "lines": signature.lines,
            "line_sizes": list(signature.line_sizes),
            "multipoint_degrees": list(signature.multipoint_degrees),
        }
    _emit(args, "matroid", text, payload)
    return 0


def cmd_verify(args) -> int:
    """Run one campaign, or all in name order, passing only the flags the user
    gave; a campaign's keyword parameters name the flags it takes."""
    if args.trials is not None and args.trials < 1:
        raise SystemExit("--trials must be at least 1")
    for flag in ("--max-pairs", "--max-degree"):
        budget = getattr(args, VERIFY_FLAGS[flag])
        if budget is not None and budget < 0:
            raise SystemExit(f"{flag} must be at least 0")
    given = {param: flag for flag, param in VERIFY_FLAGS.items() if getattr(args, param) is not None}
    grid = [f"--{g}" for g in GRID_FLAGS if getattr(args, g) is not None]
    if grid:
        given["spec"] = ", ".join(grid)
    names = sorted(VERIFICATIONS) if args.name == "all" else [args.name]
    takes = {name: _keywords(VERIFICATIONS[name]) for name in names}
    if args.name != "all":
        refused = [flag for param, flag in given.items() if param not in takes[args.name]]
        if refused:
            raise SystemExit(f"verify {args.name} does not take {', '.join(refused)}")
    values = {param: _grid_spec(args) if param == "spec" else getattr(args, param) for param in given}
    reports = {
        name: VERIFICATIONS[name](seed=args.seed, **{p: v for p, v in values.items() if p in takes[name]})
        for name in names
    }
    if args.name != "all":
        return _emit_report(args, reports[args.name])
    if args.out:
        for name, report in reports.items():
            _emit(args, f"{name}/report", report.to_text(), report.to_json())
    else:
        text = "".join(report.to_text() for report in reports.values())
        _emit(args, "report", text, {name: report.to_json_dict() for name, report in reports.items()})
    return EXIT_CODES[overall_status(report.status for report in reports.values())]


def cmd_secant(args) -> int:
    model = segre_tangent_model(args.m, args.n)
    rng = child_rng(args.seed, f"cli/secant/m{args.m}n{args.n}k{args.k}")
    dim = secant_dimension(model, args.k, rng)
    text = (
        f"model {model.name}\nambient {model.ambient}\nk {args.k}\n"
        f"cone-dimension {dim}\nprojective-dimension {dim - 1}\nseed {args.seed}\n"
    )
    payload = {
        "model": model.name,
        "ambient": model.ambient,
        "k": args.k,
        "cone_dimension": dim,
        "projective_dimension": dim - 1,
        "seed": args.seed,
    }
    _emit(args, "secant", text, payload)
    return 0


def cmd_rigidity(args) -> int:
    if args.framework:
        if args.n is not None or args.d is not None:
            raise SystemExit("--framework replaces --n/--d")
        fw = integer_framework(Framework.from_text(Path(args.framework).read_text()))
        R = rigidity_matrix(fw)
        r = rigidity_rank(fw, R)
        text = (
            f"vertices {fw.n}\ndimension {fw.d}\nedges {len(fw.edges)}\n"
            f"rigidity-matrix {len(R)} x {fw.d * fw.n}\nrank {r}\n"
        )
        payload = {
            "vertices": fw.n,
            "dimension": fw.d,
            "edges": len(fw.edges),
            "rank": r,
            "rows": len(R),
            "cols": fw.d * fw.n,
        }
        _emit(args, "rigidity", text, payload)
        return 0
    if args.n is None or args.d is None:
        raise SystemExit("rigidity needs --n and --d (or --framework FILE)")
    rng = child_rng(args.seed, f"cli/rigidity/n{args.n}d{args.d}")
    report = generic_rigidity_check(args.n, args.d, rng, seed_note=args.seed)
    return _emit_report(args, report)


COMMANDS = {
    "grid": cmd_grid,
    "ideal": cmd_ideal,
    "matroid": cmd_matroid,
    "verify": cmd_verify,
    "secant": cmd_secant,
    "rigidity": cmd_rigidity,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _load_config(argv)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return USAGE_EXIT
        raise
    except KeyError as exc:
        # str() of a KeyError is the repr of its argument; print the message.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except GenericityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INCONCLUSIVE_EXIT


if __name__ == "__main__":
    sys.exit(main())
