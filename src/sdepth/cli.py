"""Command-line surface.

Subcommands: sdepth, depth, dim, power, verify, sequence, export.  Exit
codes: 0 success/holds, 1 input error, 2 verdict "fails", 3 "unknown"
(budget exhausted).  Budgets come from flags, falling back to the
SDEPTH_TIME_LIMIT / SDEPTH_CELL_CAP / SDEPTH_GEN_CAP environment variables.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .core import GeneratorCapError, MonomialIdeal, QuotientModule, krull_dim_quotient
from .lattice import build_lcm_lattice, lattice_to_dot
from .parsing import ParseError, format_ideal, parse_ideal, parse_module_expr, split_blocks
from .poset import Budget, ResourceCapError, build_poset, poset_to_dot, sdepth_exact
from .taylor import TaylorCapError, depth_ideal, depth_quotient
from .verifier import (
    STATEMENTS,
    HypothesisError,
    TheoremReport,
    depth_sequence,
    run_random,
    sdepth_sequence,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILS = 2
EXIT_UNKNOWN = 3


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-limit", type=float, default=_env_float("SDEPTH_TIME_LIMIT", 60.0),
        help="seconds per sdepth decision (default 60, env SDEPTH_TIME_LIMIT)",
    )
    parser.add_argument(
        "--cell-cap", type=int, default=_env_int("SDEPTH_CELL_CAP", 10**6),
        help="max box volume for poset construction and box checks (default 1e6, env SDEPTH_CELL_CAP)",
    )
    parser.add_argument(
        "--gen-cap", type=int, default=_env_int("SDEPTH_GEN_CAP", 5000),
        help="max generators in ideal products (default 5000, env SDEPTH_GEN_CAP)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers where supported")


def _budget(args) -> Budget:
    if args.time_limit <= 0 or args.cell_cap <= 0 or args.gen_cap <= 0:
        raise ParseError("budgets must be positive")
    return Budget(cell_cap=args.cell_cap, time_limit=args.time_limit)


def _load_ideal(path: str) -> MonomialIdeal:
    try:
        with open(path) as fh:
            return parse_ideal(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


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
    try:
        result = sdepth_exact(module, budget=budget)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    payload = {"command": "sdepth", "module": getattr(args, "module", None) or "I"}
    payload.update(result.to_json_dict())
    if result.status == "exact":
        text = f"sdepth({module}) = {result.value}"
    else:
        text = f"sdepth({module}) in [{result.lo}, {result.hi}] (unknown: budget exhausted)"
    _emit(args, payload, text)
    if args.export_poset:
        poset = build_poset(module, budget=budget)
        with open(args.export_poset, "w") as fh:
            fh.write(poset_to_dot(poset, result.witness))
    return EXIT_OK if result.status == "exact" else EXIT_UNKNOWN


def cmd_depth(args) -> int:
    ideal = _load_ideal(args.path)
    module = _resolve_module(args, ideal)
    if not module.outer.is_unit and not module.inner.is_zero:
        raise ParseError("depth handles cyclic modules only: use S/expr or a plain ideal")
    target = module.inner if module.outer.is_unit else module.outer
    try:
        report = depth_quotient(target)
        ideal_depth = None
        if not target.is_zero and target.is_proper:
            ideal_depth = report.depth_quotient + 1
    except (TaylorCapError, GeneratorCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
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
    ideal = _load_ideal(args.path)
    try:
        power = ideal.power(args.n, cap=args.gen_cap)
    except GeneratorCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
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


def cmd_verify(args) -> int:
    if args.statement not in STATEMENTS:
        print(
            f"error: unknown statement {args.statement!r}; known: "
            + ", ".join(sorted(STATEMENTS)),
            file=sys.stderr,
        )
        return EXIT_INPUT
    budget = _budget(args)
    kind, fn = STATEMENTS[args.statement]
    reports: list[dict] = []
    if args.random is not None:
        tasks = [
            (args.statement, args.random + i, args.n, budget) for i in range(args.count)
        ]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                reports = list(pool.map(_verify_worker, tasks))
        else:
            reports = [_verify_worker(t) for t in tasks]
    else:
        if args.ideal is None:
            raise ParseError("verify needs --ideal FILE or --random SEED")
        ideal = _load_ideal(args.ideal)
        report = _verify_on_ideal(args, kind, fn, ideal, budget)
        reports = [report.to_json_dict()]
    for rep in reports:
        _print_report(args, rep)
    return _report_exit([r["verdict"] for r in reports])


def _verify_on_ideal(args, kind, fn, ideal, budget) -> TheoremReport:
    n = args.n if args.n is not None else (args.n_max or 2)
    if kind in ("pair", "pair_n", "pair_ci_nmax"):
        if ideal.context.split is None:
            raise ParseError("this statement needs a split ideal file (vars: ... | ...)")
        ctx = ideal.context
        part_a, part_b = split_blocks(ideal)
        from .core import Monomial, RingContext

        ctx_a = RingContext(ctx.block_a)
        ctx_b = RingContext(ctx.block_b)
        r = ctx.split
        ia = MonomialIdeal.from_gens(
            ctx_a, [Monomial(ctx_a, g.exponents[:r]) for g in part_a.gens]
        )
        ib = MonomialIdeal.from_gens(
            ctx_b, [Monomial(ctx_b, g.exponents[r:]) for g in part_b.gens]
        )
        if kind == "pair":
            return fn(ia, ib, budget=budget)
        return fn(ia, ib, n, budget=budget)
    if kind == "ci_n":
        return fn(ideal, args.n_max if args.n_max is not None else (args.k_max or n), budget=budget)
    if kind == "colon_shift":
        last_error = None
        for v in ideal.gens:
            try:
                return fn(ideal, v, args.n_max or n, budget=budget)
            except HypothesisError as exc:
                last_error = exc
        raise last_error or HypothesisError("no generator satisfies the hypothesis")
    if kind == "decomp":
        if ideal.context.split is None:
            raise ParseError("this statement needs a split ideal file (vars: ... | ...)")
        ctx = ideal.context
        part_a, part_b = split_blocks(ideal)
        if len(part_b.gens) != 1:
            raise HypothesisError("needs exactly one block-B generator v")
        from .core import Monomial, RingContext

        ctx_a = RingContext(ctx.block_a)
        ctx_b = RingContext(ctx.block_b)
        r = ctx.split
        ia = MonomialIdeal.from_gens(
            ctx_a, [Monomial(ctx_a, g.exponents[:r]) for g in part_a.gens]
        )
        v = Monomial(ctx_b, part_b.gens[0].exponents[r:])
        return fn(ia, v, n, budget=budget)
    raise AssertionError(f"unhandled statement kind {kind}")


def cmd_sequence(args) -> int:
    ideal = _load_ideal(args.path)
    budget = _budget(args)
    fn = depth_sequence if args.depth else sdepth_sequence
    kind = "depth" if args.depth else "sdepth"
    rows = fn(ideal, args.n, budget=budget)
    payload = {
        "command": "sequence",
        "kind": kind,
        "rows": [
            {
                "n": row.n,
                "ring_quotient": row.ring_quotient.value,
                "ideal_power": row.ideal_power.value,
                "shell": row.shell.value,
            }
            for row in rows
        ],
    }
    lines = [f"{'n':>3} {kind + '(R/L^n)':>16} {kind + '(L^n)':>14} {kind + '(L^n/L^n+1)':>18}"]
    for row in rows:
        lines.append(
            f"{row.n:>3} {str(row.ring_quotient):>16} {str(row.ideal_power):>14} {str(row.shell):>18}"
        )
    _emit(args, payload, "\n".join(lines))
    if any(e.status == "unknown" for row in rows for e in (row.ring_quotient, row.ideal_power, row.shell)):
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_export(args) -> int:
    ideal = _load_ideal(args.path)
    budget = _budget(args)
    if args.what == "poset":
        module = _resolve_module(args, ideal)
        dot = poset_to_dot(build_poset(module, budget=budget))
    else:
        dot = lattice_to_dot(build_lcm_lattice(ideal))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
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
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_sdepth)

    p = sub.add_parser("depth", help="depth of S/I and I")
    p.add_argument("path")
    p.add_argument("--module", help="module expression (cyclic modules only)")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_depth)

    p = sub.add_parser("dim", help="Krull dimension of S/I")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("power", help="dump I^n in the ideal file format")
    p.add_argument("path")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("verify", help="check a catalogued statement")
    p.add_argument("statement", help="e.g. lemma_2_1, thm_2_15; see docs/statement-catalog.md")
    p.add_argument("--ideal", help="ideal file (split file for two-block statements)")
    p.add_argument("--random", type=int, metavar="SEED", help="random instances from SEED")
    p.add_argument("--count", type=int, default=1, help="number of random instances")
    p.add_argument("--n", type=int, help="power n for single-power statements")
    p.add_argument("--n-max", type=int, help="largest power for sequence statements")
    p.add_argument("--k-max", type=int, help="largest power for prop_2_14")
    p.add_argument("--json", action="store_true", help="one JSON line per report")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sequence", help="tabulate sdepth/depth of powers")
    p.add_argument("path")
    p.add_argument("n", type=int, help="largest power")
    p.add_argument("--depth", action="store_true", help="depth instead of sdepth")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("export", help="DOT export of the poset or lcm-lattice")
    p.add_argument("what", choices=["poset", "lattice"])
    p.add_argument("path")
    p.add_argument("--module", help="module expression for poset export")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, HypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
