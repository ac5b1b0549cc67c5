"""Per-layer tracing for the traced benchmark run.

The tracer replaces each layer's public functions, at the names their
callers look up, with wrappers that record a span: name, start, end, parent
span and the operation it belongs to, plus a few counts read from the
arguments or the result.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus its children's.

Layers are the modules of src/sdepth: core (ideal arithmetic), poset (box
enumeration, partition search, certificates), taylor, lattice and verifier.
"""
from __future__ import annotations

import json
import math
import pathlib
import time
from collections import defaultdict

import sdepth.lattice as lattice
import sdepth.poset as poset
import sdepth.taylor as taylor
import sdepth.verifier as verifier
from sdepth.core import MonomialIdeal

SETUP_OP = -1  # the operation id of spans recorded during set-up

# (name, unit) in the order they are reported
METRICS = [
    ("core.power_calls", "count"), ("core.power_s", "s"), ("core.multiply_s", "s"),
    ("core.gens_out", "count"),
    ("poset.build_calls", "count"), ("poset.build_s", "s"), ("poset.box_points", "count"),
    ("poset.cells", "count"),
    ("poset.decisions", "count"), ("poset.refuted", "count"), ("poset.found", "count"),
    ("poset.search_s", "s"), ("poset.refute_s", "s"), ("poset.found_s", "s"),
    ("poset.nodes", "count"), ("poset.nodes_per_s", "1/s"),
    ("cert.expand_s", "s"), ("cert.verify_s", "s"), ("cert.spaces", "count"),
    ("cert.box_points", "count"),
    ("taylor.depth_calls", "count"), ("taylor.socle_shortcuts", "count"), ("taylor.tor_s", "s"),
    ("taylor.subsets", "count"), ("taylor.rank_calls", "count"), ("taylor.rank_s", "s"),
    ("taylor.rank_entries", "count"),
    ("lattice.calls", "count"), ("lattice.build_s", "s"), ("lattice.iso_s", "s"),
    ("verifier.reports", "count"), ("verifier.self_s", "s"), ("verifier.box_walk_s", "s"),
    ("verifier.sdepth_calls", "count"), ("verifier.sdepth_distinct", "count"),
    ("verifier.depth_calls", "count"), ("verifier.depth_distinct", "count"),
]

BOX_WALKS = ("verifier.check.prop_2_3", "verifier.check.thm_2_11_decomposition")


def _box(g, extra: int) -> int:
    return math.prod(gj + extra for gj in g)


class Tracer:
    """Installs the wrappers on construction; uninstall() puts back the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = SETUP_OP
        self._wrap(MonomialIdeal, "power", "core.power")
        self._wrap(MonomialIdeal, "multiply", "core.multiply", lambda a, r: len(r.gens))
        self._wrap(poset, "build_poset", "poset.build", lambda a, r: (_box(r.g, 1), len(r)))
        self._wrap(poset, "sdepth_decision", "poset.decision", lambda a, r: (r.status, r.nodes))
        self._wrap(poset, "partition_to_decomposition", "cert.expand", lambda a, r: len(r.spaces))
        self._wrap(poset, "verify_decomposition", "cert.verify",
                   lambda a, r: _box(poset.degree_bound_g(a[1]), 2))
        self._wrap(taylor, "taylor_tor_ranks", "taylor.tor", lambda a, r: 2 ** len(a[0].gens))
        self._wrap(taylor, "rational_rank", "taylor.rank",
                   lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0)
        self._wrap(taylor, "depth_quotient", "taylor.depth", lambda a, r: r.method == "socle-shortcut")
        # the verifier holds its own reference; route it through the taylor span
        self._restore.append((verifier, "depth_quotient", verifier.depth_quotient))
        verifier.depth_quotient = taylor.depth_quotient
        self._wrap(verifier, "depth_quotient", "verifier.depth", lambda a, r: ("q", a[0]))
        self._wrap(verifier, "depth_ideal", "verifier.depth", lambda a, r: ("i", a[0]))
        self._wrap(verifier, "sdepth_exact", "verifier.sdepth", lambda a, r: a[0])
        self._wrap(verifier, "build_lcm_lattice", "lattice.build")
        self._wrap(verifier, "ci_power_atom_map", "lattice.atom_map")
        self._wrap(verifier, "sdepth_transfer", "lattice.transfer")
        self._wrap(lattice, "lattice_iso_check", "lattice.iso")
        for name in dir(verifier):
            if name.startswith("check_"):
                self._wrap(verifier, name, f"verifier.check.{name[len('check_'):]}")

    def begin_op(self, op: int) -> None:
        self.op = op

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, op_ratio: dict[int, float], failed_ops: set[int]) -> dict:
        """Per-layer totals in reference seconds, over set-up and the
        operations that did not fail."""
        children = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        count = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        info_sum = defaultdict(int)
        decided = defaultdict(float)
        distinct = defaultdict(set)
        for index, (name, start, end, parent, op, info) in enumerate(self.spans):
            if op in failed_ops:
                continue
            ratio = op_ratio[op]
            span_s = (end - start) * ratio
            count[name] += 1
            total[name] += span_s
            own[name] += span_s - children[index] * ratio
            if info is None:  # no info, or the call raised
                continue
            if name == "poset.decision":
                status, nodes = info
                count[f"decision.{status}"] += 1
                decided[status] += span_s
                info_sum[name] += nodes
            elif name == "poset.build":
                info_sum["box"] += info[0]
                info_sum["cells"] += info[1]
            elif name in ("verifier.sdepth", "verifier.depth"):
                distinct[name].add(info)
            else:
                info_sum[name] += info
        checks = [n for n in count if n.startswith("verifier.check.")]
        values = {
            "core.power_calls": count["core.power"],
            "core.power_s": total["core.power"],
            "core.multiply_s": total["core.multiply"],
            "core.gens_out": info_sum["core.multiply"],
            "poset.build_calls": count["poset.build"],
            "poset.build_s": total["poset.build"],
            "poset.box_points": info_sum["box"],
            "poset.cells": info_sum["cells"],
            "poset.decisions": count["poset.decision"],
            "poset.refuted": count["decision.false"],
            "poset.found": count["decision.true"],
            "poset.search_s": total["poset.decision"],
            "poset.refute_s": decided["false"],
            "poset.found_s": decided["true"],
            "poset.nodes": info_sum["poset.decision"],
            "poset.nodes_per_s": info_sum["poset.decision"] / total["poset.decision"]
            if total["poset.decision"] else 0.0,
            "cert.expand_s": total["cert.expand"],
            "cert.verify_s": total["cert.verify"],
            "cert.spaces": info_sum["cert.expand"],
            "cert.box_points": info_sum["cert.verify"],
            "taylor.depth_calls": count["taylor.depth"],
            "taylor.socle_shortcuts": info_sum["taylor.depth"],
            "taylor.tor_s": total["taylor.tor"],
            "taylor.subsets": info_sum["taylor.tor"],
            "taylor.rank_calls": count["taylor.rank"],
            "taylor.rank_s": total["taylor.rank"],
            "taylor.rank_entries": info_sum["taylor.rank"],
            "lattice.calls": sum(c for n, c in count.items() if n.startswith("lattice.")),
            "lattice.build_s": total["lattice.build"],
            "lattice.iso_s": total["lattice.iso"],
            "verifier.reports": sum(count[n] for n in checks),
            "verifier.self_s": sum((own[n] for n in checks), 0.0),
            "verifier.box_walk_s": sum(own[n] for n in BOX_WALKS),
            "verifier.sdepth_calls": count["verifier.sdepth"],
            "verifier.sdepth_distinct": len(distinct["verifier.sdepth"]),
            "verifier.depth_calls": count["verifier.depth"],
            "verifier.depth_distinct": len(distinct["verifier.depth"]),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write(self, path: pathlib.Path) -> None:
        """One JSON array per span: name, start, end, parent index, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op, _ in self.spans:
                out.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")
