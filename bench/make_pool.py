#!/usr/bin/env python3
"""Build and vet the instance pools that the sdepth and corpus workloads
draw from.

Usage: python3 bench/make_pool.py sdepth|corpus

Candidates come from this file's own generator with a fixed seed.  Each is
run once through the program with a short decision time limit; it enters
the pool only if every answer is decided before any decision reaches half
that limit (the point where the partition search switches phase on the wall
clock).  The rest are printed as excluded, with the reason, and are not
benchmarked.  The pool is written to bench/pool_<workload>.json with the
vetting cost of each entry, ordered by cost within each group, so that the
benchmark can draw one entry per cost stratum.
"""
from __future__ import annotations

import json
import pathlib
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sdepth.verifier as verifier  # noqa: E402
from sdepth.poset import Budget, build_poset, sdepth_exact  # noqa: E402

from instances import (  # noqa: E402
    STATEMENT_KINDS,
    block_context,
    corpus_args,
    ideal,
    sdepth_module,
)
from workloads import SlowestWalk, certify  # noqa: E402

POOL_SEED = 20151229
VET_LIMIT = 4.0  # seconds per decision while vetting
CELLS = (200, 1200)  # mid-size modules for the sdepth workload
SDEPTH_PER_KIND = 120
CORPUS_PER_STATEMENT = 400
# Vetting cost caps, in seconds.  The few entries above them held a large
# share of the time, so a run's throughput depended on which of them its
# seed drew.  They are left out for steadiness, not as faults.
SDEPTH_COST_CAP = 0.5
CORPUS_COST_CAP = 0.25
MAX_ATTEMPTS = 8000


def best_time(fn, first: float) -> float:
    """The least of a first timing and two more timings of fn."""
    best = first
    for _ in range(2):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def rows_of(ideal_) -> list[list[int]]:
    return [list(g.exponents) for g in ideal_.gens]


def random_row(rng: random.Random, arity: int, max_exp: int) -> list[int]:
    while True:
        row = [rng.randint(0, max_exp) for _ in range(arity)]
        if any(row):
            return row


def random_rows(rng, arity: int, max_gens: int, max_exp: int) -> list[list[int]]:
    ctx = block_context("z", arity)
    rows = [random_row(rng, arity, max_exp) for _ in range(rng.randint(1, max_gens))]
    return rows_of(ideal(ctx, rows))


def random_ci_rows(rng, arity: int, max_t: int, max_exp: int) -> list[list[int]]:
    """Generators with pairwise disjoint supports of one or two variables."""
    t = rng.randint(1, min(max_t, arity))
    order = list(range(arity))
    rng.shuffle(order)
    rows, pos = [], 0
    for i in range(t):
        room = arity - pos - (t - i - 1)
        size = rng.randint(1, max(1, min(2, room)))
        row = [0] * arity
        for j in order[pos : pos + size]:
            row[j] = rng.randint(1, max_exp)
        pos += size
        rows.append(row)
    return rows_of(ideal(block_context("z", arity), rows))


def sdepth_candidate(rng: random.Random) -> dict:
    kind = rng.choice(["ideal", "quotient", "shell"])
    n = rng.choice([2, 3])
    if rng.random() < 0.3:
        return {"kind": kind, "n": n, "j": random_ci_rows(rng, rng.randint(2, 5), 4, 3)}
    return {
        "kind": kind,
        "n": n,
        "a": random_rows(rng, rng.randint(1, 3), 3, 2),
        "b": random_rows(rng, rng.randint(1, 3), 3, 2),
    }


def colon_shift_candidate(rng: random.Random) -> dict | None:
    """L = (w*u_1, .., w*u_m, w*v_b): u_i in block A, v_b in block B."""
    r, s = rng.randint(1, 2), rng.randint(1, 2)
    w = [rng.randint(0, 1) for _ in range(r)] + [0] * s
    others = [random_row(rng, r, 2) + [0] * s for _ in range(rng.randint(1, 2))]
    v = [a + b for a, b in zip(w, [0] * r + random_row(rng, s, 2))]
    ctx = block_context("z", r + s)
    gens = [[a + b for a, b in zip(w, u)] for u in others] + [v]
    rows = rows_of(ideal(ctx, gens))
    if v not in rows or len(rows) < 2:
        return None
    gcds = {tuple(map(min, v, u)) for u in rows if u != v}
    if gcds != {tuple(w)}:
        return None
    return {"r": r, "l": rows, "v": v, "n": 2}


def corpus_candidate(rng: random.Random, statement: str) -> dict | None:
    kind = STATEMENT_KINDS[statement]
    if kind == "pair":
        return {"a": random_rows(rng, rng.randint(1, 3), 3, 2),
                "b": random_rows(rng, rng.randint(1, 3), 3, 2)}
    if kind == "pair_n":
        if statement == "thm_2_11":
            return {"a": random_rows(rng, rng.randint(1, 2), 2, 2),
                    "b": random_ci_rows(rng, rng.randint(1, 2), 2, 2), "n": 2}
        arity = 2 if statement in ("prop_2_6", "obs_2_8") else 3
        return {"a": random_rows(rng, rng.randint(1, arity), 3, 2),
                "b": random_rows(rng, rng.randint(1, arity), 3, 2),
                "n": rng.choice([1, 1, 2])}
    if kind == "ci_n":
        return {"j": random_ci_rows(rng, rng.randint(1, 4), 3, 2), "n": 2}
    if kind == "decomp":
        return {"a": random_rows(rng, rng.randint(1, 2), 3, 2),
                "v": random_row(rng, rng.randint(1, 2), 2), "n": rng.choice([2, 3])}
    return colon_shift_candidate(rng)


def vet_sdepth() -> tuple[dict, list]:
    rng = random.Random(POOL_SEED)
    budget = Budget(time_limit=VET_LIMIT)
    pool: dict[str, list] = {"ideal": [], "quotient": [], "shell": []}
    seen, excluded = set(), []
    for _ in range(MAX_ATTEMPTS):
        if all(len(v) >= SDEPTH_PER_KIND for v in pool.values()):
            break
        entry = sdepth_candidate(rng)
        if len(pool[entry["kind"]]) >= SDEPTH_PER_KIND:
            continue
        module = sdepth_module(entry)
        key = (str(module), module.context.variables)
        if key in seen or module.is_zero:
            continue
        seen.add(key)
        cells = len(build_poset(module, budget=Budget(cell_cap=10**7)))
        if not CELLS[0] <= cells <= CELLS[1]:
            continue
        start = time.perf_counter()
        res = sdepth_exact(module, budget=budget)
        if res.status != "exact" or res.elapsed >= VET_LIMIT / 2:
            excluded.append({**entry, "status": res.status, "lo": res.lo, "hi": res.hi,
                             "cells": cells, "nodes": res.nodes, "elapsed_s": round(res.elapsed, 3)})
            print("excluded", excluded[-1], flush=True)
            continue
        certify(module, res)
        cost = time.perf_counter() - start
        if cost <= 2 * SDEPTH_COST_CAP:
            cost = best_time(lambda: certify(module, sdepth_exact(module, budget=budget)), cost)
        if cost > SDEPTH_COST_CAP:
            continue
        entry = {**entry, "cells": cells, "cost_s": round(cost, 4)}
        pool[entry["kind"]].append(entry)
        print("kept", entry, flush=True)
    return pool, excluded


def vet_corpus() -> tuple[dict, list]:
    rng = random.Random(POOL_SEED)
    budget = Budget(time_limit=VET_LIMIT)
    slowest = SlowestWalk()
    pool: dict[str, list] = {}
    excluded = []
    for statement in STATEMENT_KINDS:
        kept, seen = [], set()
        for _ in range(MAX_ATTEMPTS):
            if len(kept) >= CORPUS_PER_STATEMENT:
                break
            entry = corpus_candidate(rng, statement)
            if entry is None:
                continue
            key = json.dumps(entry, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            slowest.value = 0.0
            start = time.perf_counter()
            check = getattr(verifier, f"check_{statement}")
            args = corpus_args(statement, entry)
            report = check(*args, budget=budget)
            cost = time.perf_counter() - start
            if report.verdict not in ("holds", "vacuous") or slowest.value >= VET_LIMIT / 2:
                excluded.append({"statement": statement, **entry, "verdict": report.verdict,
                                 "slowest_sdepth_s": round(slowest.value, 3)})
                print("excluded", excluded[-1], flush=True)
                continue
            if cost <= 2 * CORPUS_COST_CAP:
                cost = best_time(lambda: check(*args, budget=budget), cost)
            if cost > CORPUS_COST_CAP:
                continue
            kept.append({**entry, "cost_s": round(cost, 4)})
        kept.sort(key=lambda e: e["cost_s"])
        pool[statement] = kept
        print(statement, len(kept), "kept", flush=True)
    return pool, excluded


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("sdepth", "corpus"):
        print(__doc__, file=sys.stderr)
        return 2
    workload = sys.argv[1]
    pool, excluded = vet_sdepth() if workload == "sdepth" else vet_corpus()
    for entries in pool.values():
        entries.sort(key=lambda e: e["cost_s"])
    out = HERE / f"pool_{workload}.json"
    doc = {"seed": POOL_SEED, "vet_time_limit_s": VET_LIMIT, "pool": pool, "excluded": excluded}
    out.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {out}: {sum(map(len, pool.values()))} entries, {len(excluded)} excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
