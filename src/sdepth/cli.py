"""Command-line surface.

Subcommands: sdepth, depth, dim, power, verify, sequence, export.  Exit
codes: 0 success/holds (and --help), 1 input or usage error, 2 verdict
"fails", 3 "unknown" (budget exhausted).  Each mode takes only the budget
flags it reads: --time-limit and --cell-cap for sdepth, sequence and
verify, --cell-cap for export poset, --gen-cap for power, none for export
lattice (nor --module), sequence --depth, depth and dim; unset flags fall
back to the SDEPTH_TIME_LIMIT / SDEPTH_CELL_CAP / SDEPTH_GEN_CAP
environment variables, which are read only for those flags (a malformed
value is an input error).  ``verify all`` runs every catalogued statement
on random instances.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple

from .core import CapError, DEFAULT_GENERATOR_CAP, MonomialIdeal, QuotientModule, krull_dim_quotient
from .lattice import build_lcm_lattice, lattice_to_dot
from .parsing import ParseError, format_ideal, parse_ideal, parse_module_expr, split_blocks
from .poset import DEFAULT_BUDGET, Budget, build_poset, poset_to_dot, sdepth_exact
from .taylor import depth_ideal, depth_quotient
from .verifier import (
    STATEMENTS,
    HypothesisError,
    depth_sequence,
    run_on_ideal,
    run_random,
    sdepth_sequence,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILS = 2
EXIT_UNKNOWN = 3

# flag dest -> (environment variable, type, default) for unset budget flags
ENV_DEFAULTS = {
    "time_limit": ("SDEPTH_TIME_LIMIT", float, DEFAULT_BUDGET.time_limit),
    "cell_cap": ("SDEPTH_CELL_CAP", int, DEFAULT_BUDGET.cell_cap),
    "gen_cap": ("SDEPTH_GEN_CAP", int, DEFAULT_GENERATOR_CAP),
}


def _fill_env_defaults(args) -> None:
    """Set each unset budget flag of the subcommand from its environment
    variable or default; a variable the subcommand does not read is ignored."""
    for dest, (var, kind, default) in ENV_DEFAULTS.items():
        if dest not in vars(args) or getattr(args, dest) is not None:
            continue
        raw = os.environ.get(var)
        try:
            setattr(args, dest, kind(raw) if raw else default)
        except ValueError:
            raise ParseError(f"{var}={raw!r} is not a valid {kind.__name__}") from None


def _add_time_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-limit", type=float,
        help=f"seconds per sdepth decision (default {DEFAULT_BUDGET.time_limit:g}, env SDEPTH_TIME_LIMIT)",
    )


def _add_cell_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cell-cap", type=int,
        help="max box volume for poset construction and box checks"
        f" (default {DEFAULT_BUDGET.cell_cap:,}, env SDEPTH_CELL_CAP)",
    )


def _budget(args) -> Budget:
    """The budget of the --time-limit and --cell-cap flags; Budget itself
    rejects a limit that is not positive."""
    return Budget(cell_cap=args.cell_cap, time_limit=args.time_limit)


def _load_ideal(path: str) -> MonomialIdeal:
    try:
        with open(path) as fh:
            return parse_ideal(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _names_for(ideal: MonomialIdeal) -> dict[str, MonomialIdeal]:
    """Ideal names visible to module expressions.

    Split files bind I to the block-A generators and J to the block-B
    generators (both extended in the full ring); L is always the whole ideal.
    Without a split, I, J and L all name the parsed ideal.
    """
    names = {"L": ideal}
    if ideal.context.split is not None:
        part_a, part_b = split_blocks(ideal)
        names["I"], names["J"] = part_a, part_b
    else:
        names["I"] = names["J"] = ideal
    return names


def _resolve_module(args, ideal: MonomialIdeal) -> QuotientModule:
    expr = getattr(args, "module", None) or "I"
    return parse_module_expr(expr, _names_for(ideal), ideal.context)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_sdepth(args) -> int:
    ideal = _load_ideal(args.path)
    module = _resolve_module(args, ideal)
    budget = _budget(args)
    result = sdepth_exact(module, budget=budget)
    payload = {"command": "sdepth", "module": getattr(args, "module", None) or "I"}
    payload.update(result.to_json_dict())
    if result.status == "exact":
        text = f"sdepth({module}) = {result.value}"
    else:
        text = f"sdepth({module}) in [{result.lo}, {result.hi}] (unknown: budget exhausted)"
    # written first, so that a failed write prints no result
    if args.export_poset:
        _write_text(args.export_poset, poset_to_dot(build_poset(module, budget=budget), result.witness))
    _emit(args, payload, text)
    return EXIT_OK if result.status == "exact" else EXIT_UNKNOWN


def cmd_depth(args) -> int:
    ideal = _load_ideal(args.path)
    module = _resolve_module(args, ideal)
    if not module.outer.is_unit and not module.inner.is_zero:
        raise ParseError("depth handles cyclic modules only: use S/expr or a plain ideal")
    target = module.inner if module.outer.is_unit else module.outer
    report = depth_quotient(target)
    ideal_depth = None
    if not target.is_zero and target.is_proper:
        ideal_depth = depth_ideal(target, quotient_depth=report.depth_quotient)
    payload = {
        "command": "depth",
        "depth_quotient": report.depth_quotient,
        "pd": report.pd,
        "method": report.method,
        "depth_ideal": ideal_depth,
    }
    text = (
        f"depth(S/I) = {report.depth_quotient}  pd(S/I) = {report.pd}"
        f"  [{report.method}]"
        + (f"  depth(I) = {ideal_depth}" if ideal_depth is not None else "")
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_dim(args) -> int:
    ideal = _load_ideal(args.path)
    value = krull_dim_quotient(ideal)
    _emit(args, {"command": "dim", "dim": value}, str(value))
    return EXIT_OK


def cmd_power(args) -> int:
    if args.gen_cap <= 0:
        raise ParseError("budgets must be positive")
    ideal = _load_ideal(args.path)
    power = ideal.power(args.n, cap=args.gen_cap)
    text = format_ideal(power)
    _emit(args, {"command": "power", "n": args.n, "ideal": text}, text.rstrip("\n"))
    return EXIT_OK


def _verify_worker(task) -> dict:
    statement, seed, n, budget = task
    return run_random(statement, seed, n=n, budget=budget).to_json_dict()


def _report_exit(verdicts: list[str]) -> int:
    if "fails" in verdicts:
        return EXIT_FAILS
    if "unknown" in verdicts:
        return EXIT_UNKNOWN
    return EXIT_OK


def _print_report(args, report_dict: dict) -> None:
    if args.json:
        print(json.dumps({"command": "verify", **report_dict}, sort_keys=True))
        return
    print(f"{report_dict['statement']}: {report_dict['verdict']}")
    for item in report_dict["items"]:
        print(
            f"  [{item['verdict']:>9}] {item['label']}: "
            f"{item['lhs']} {item['relation']} {item['rhs']}"
        )
    if report_dict["verdict"] == "fails":
        print("  instance dump:")
        for key, val in report_dict["instance"].items():
            print(f"    {key} = {val!r}")


def _print_summary(reports: list[dict]) -> None:
    verdicts = ("holds", "vacuous", "unknown", "fails")
    counts: dict[str, Counter] = {}
    for rep in reports:
        counts.setdefault(rep["statement"], Counter())[rep["verdict"]] += 1
    width = max(len(s) for s in counts)
    print(f"{'statement':<{width}} " + " ".join(f"{v:>8}" for v in verdicts))
    for statement, row in counts.items():
        print(f"{statement:<{width}} " + " ".join(f"{row[v]:>8}" for v in verdicts))


def cmd_verify(args) -> int:
    if args.statement != "all" and args.statement not in STATEMENTS:
        print(
            f"error: unknown statement {args.statement!r}; known: all, "
            + ", ".join(sorted(STATEMENTS)),
            file=sys.stderr,
        )
        return EXIT_INPUT
    budget = _budget(args)
    if (args.ideal is None) == (args.random is None):
        raise ParseError("verify needs exactly one of --ideal FILE and --random SEED")
    if args.n is not None and args.statement != "all" and STATEMENTS[args.statement].power == "none":
        raise ParseError(f"{args.statement} takes no power: drop --n")
    if args.random is None:
        if args.statement == "all":
            raise ParseError("verify all needs --random SEED")
        if args.count is not None or args.jobs is not None:
            raise ParseError("--count and --jobs apply to --random SEED only")
        report = run_on_ideal(args.statement, _load_ideal(args.ideal), args.n, budget)
        reports = [report.to_json_dict()]
    else:
        count = 1 if args.count is None else args.count
        jobs = 1 if args.jobs is None else args.jobs
        if count < 1:
            raise ParseError("--count must be positive")
        if jobs < 1:
            raise ParseError("--jobs must be positive")
        names = sorted(STATEMENTS) if args.statement == "all" else [args.statement]
        tasks = [(s, args.random + i, args.n, budget) for s in names for i in range(count)]
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_verify_worker, tasks))
        else:
            reports = [_verify_worker(t) for t in tasks]
    summary = args.statement == "all" and not args.json
    for rep in reports:
        if not summary or rep["verdict"] == "fails":
            _print_report(args, rep)
    if summary:
        _print_summary(reports)
    return _report_exit([r["verdict"] for r in reports])


def cmd_sequence(args) -> int:
    ideal = _load_ideal(args.path)
    if args.depth:
        kind, rows = "depth", depth_sequence(ideal, args.n)
    else:
        kind, rows = "sdepth", sdepth_sequence(ideal, args.n, budget=_budget(args))
    payload = {"command": "sequence", "kind": kind, "rows": list(map(asdict, rows))}
    lines = [f"{'n':>3} {kind + '(R/L^n)':>16} {kind + '(L^n)':>14} {kind + '(L^n/L^n+1)':>18}"]
    undecided = False
    for row in rows:
        cells = [str(v) if v is not None else "?(unknown)" for v in astuple(row)[1:]]
        if args.depth:
            # the depth engine computes no shell column
            cells[2] = "?(n/a)"
        undecided = undecided or "?(unknown)" in cells
        lines.append(f"{row.n:>3} {cells[0]:>16} {cells[1]:>14} {cells[2]:>18}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_UNKNOWN if undecided else EXIT_OK


def _drop_unread_flags(args) -> None:
    """Two modes read fewer flags than their subcommand accepts: export
    lattice (a fixed atom cap, no module) and sequence --depth (no
    Stanley-depth decision).  A flag the mode does not read is a usage
    error, and the variable of a budget flag it does not read is not read."""
    if args.command == "export" and args.what == "lattice":
        dests, where = ("module", "cell_cap"), "export poset"
    elif args.command == "sequence" and args.depth:
        dests, where = ("time_limit", "cell_cap"), "sequence without --depth"
    else:
        return
    for dest in dests:
        value = getattr(args, dest)
        if value is not None:
            if dest in ("time_limit", "cell_cap"):
                Budget(**{dest: value})  # a budget that is not positive is reported as such
            raise ParseError(f"--{dest.replace('_', '-')} applies to {where} only")
        delattr(args, dest)


def cmd_export(args) -> int:
    ideal = _load_ideal(args.path)
    if args.what == "poset":
        module = _resolve_module(args, ideal)
        dot = poset_to_dot(build_poset(module, budget=Budget(cell_cap=args.cell_cap)))
    else:
        dot = lattice_to_dot(build_lcm_lattice(ideal))
    if args.output:
        _write_text(args.output, dot)
    else:
        print(dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdepth",
        description="Exact Stanley depth and depth of monomial ideals and their quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sdepth", help="Stanley depth of a module expression")
    p.add_argument("path")
    p.add_argument("--module", help="module expression, e.g. 'S/I^2' (default: I)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--export-poset", metavar="DOT", help="write poset + witness DOT file")
    _add_time_limit(p)
    _add_cell_cap(p)
    p.set_defaults(fn=cmd_sdepth)

    p = sub.add_parser("depth", help="depth of S/I and I")
    p.add_argument("path")
    p.add_argument("--module", help="module expression (cyclic modules only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_depth)

    p = sub.add_parser("dim", help="Krull dimension of S/I")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("power", help="dump I^n in the ideal file format")
    p.add_argument("path")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--gen-cap", type=int,
        help=f"max generators of I^n (default {DEFAULT_GENERATOR_CAP}, env SDEPTH_GEN_CAP)",
    )
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("verify", help="check a catalogued statement")
    p.add_argument(
        "statement",
        help="e.g. lemma_2_1, thm_2_15, or all (with --random); see docs/statement-catalog.md",
    )
    p.add_argument("--ideal", help="ideal file (split file for two-block statements)")
    p.add_argument("--random", type=int, metavar="SEED", help="random instances from SEED")
    p.add_argument(
        "--count", type=int, help="random instances per statement, with --random (default 1)"
    )
    p.add_argument(
        "--n", "--n-max", "--k-max", dest="n", type=int,
        help="the statement's power: n, n_max or k_max (default 2; drawn for random"
        " single-power instances)",
    )
    p.add_argument("--json", action="store_true", help="one JSON line per report")
    p.add_argument(
        "--jobs", type=int,
        help="parallel workers for --random, at most one per instance and per CPU (default 1)",
    )
    _add_time_limit(p)
    _add_cell_cap(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sequence", help="tabulate sdepth/depth of powers")
    p.add_argument("path")
    p.add_argument("n", type=int, help="largest power")
    p.add_argument("--depth", action="store_true", help="depth instead of sdepth")
    p.add_argument("--json", action="store_true")
    _add_time_limit(p)
    _add_cell_cap(p)
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("export", help="DOT export of the poset or lcm-lattice")
    p.add_argument("what", choices=["poset", "lattice"])
    p.add_argument("path")
    p.add_argument("--module", help="module expression for poset export")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    _add_cell_cap(p)
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        _drop_unread_flags(args)
        _fill_env_defaults(args)
        return args.fn(args)
    except (ParseError, HypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
