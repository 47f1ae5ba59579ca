"""Spans around calls into crosscut's public functions, recorded from outside `src/`.

`Tracer.install` rebinds every alias of each target function found in the
`crosscut.*` module dicts (for example `cli.reduced_homology` and
`families.maximal_cliques`), so calls between modules are timed too. Spans are
kept in memory as [name, start, end, parent, info] and summarised per pass by
`layer_metrics`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

TARGETS = {
    "cli": ("main",),
    "homology": ("reduced_homology",),
    "complexes": ("faces_by_dimension", "coprime_free_collapsed", "face_complex", "strong_collapse"),
    "cliques": ("maximal_cliques",),
    "families": ("count_triangle", "members", "maximal_members", "partition_components"),
    "lattice": ("FamilyLattice", "mobius"),
}

# What each span keeps of its call, taken after the span ends. Objects that
# need work to summarise (the complex, the lattice) are kept by reference and
# summarised after the pass, outside the timed interval.
_INFO = {
    "homology.reduced_homology": lambda args, result: args[0].facets,
    "complexes.faces_by_dimension": lambda args, result: [len(level) for level in result],
    "cliques.maximal_cliques": lambda args, result: len(result),
    "families.count_triangle": lambda args, result: result.row_sum(result.n_max),
    "families.members": lambda args, result: len(result),
    "families.maximal_members": lambda args, result: (args[0], args[1], len(result)),
    "lattice.mobius": lambda args, result: args[:3],
}

# Per-layer time metrics: the summed self time of the spans with these names.
SELF_TIMES = {
    "homology.reduce_self_s": ("homology.reduced_homology",),
    "complexes.faces_s": ("complexes.faces_by_dimension",),
    "cliques.bk_s": ("cliques.maximal_cliques",),
    "complexes.model_self_s": ("complexes.coprime_free_collapsed",),
    "complexes.face_complex_self_s": ("complexes.face_complex",),
    "complexes.collapse_s": ("complexes.strong_collapse",),
    "families.dfs_s": ("families.count_triangle", "families.members"),
    "families.maximal_self_s": ("families.maximal_members",),
    "families.partition_self_s": ("families.partition_components",),
    "lattice.build_s": ("lattice.FamilyLattice",),
    "lattice.mobius_s": ("lattice.mobius",),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rebound: list[str] = []

    def install(self) -> None:
        """Wrap every target, under every name it has in a crosscut module."""
        wrappers = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"crosscut.{module}")
            for name in names:
                fn = getattr(mod, name)
                label = f"{module}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(label, fn, _INFO.get(label)))
        for modname, mod in list(sys.modules.items()):
            if modname != "crosscut" and not modname.startswith("crosscut."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.rebound.append(f"{modname}.{attr}")

    def _wrap(self, label, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def _percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    rank = -(-len(samples) * q // 100)  # nearest-rank method, 1-based
    if len(samples) - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def percentiles(samples: list[float]) -> dict[str, float | None]:
    return {"p50": _percentile(samples, 50), "p90": _percentile(samples, 90)}


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 when the base is 0 (the layer did no work)."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one pass: values, the bases of its ratios, the
    reduced_homology call durations, and the time inside top-level spans."""
    duration = [end - start for _, start, end, _, _ in spans]
    nested = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            nested[span[3]] += duration[i]
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    for i, span in enumerate(spans):
        self_by_name[span[0]] += duration[i] - nested[i]
        calls[span[0]] += 1

    def info(name):
        return [s[4] for s in spans if s[0] == name]

    values = {metric: float(sum(self_by_name[n] for n in names)) for metric, names in SELF_TIMES.items()}

    reduce_idx = {i for i, s in enumerate(spans) if s[0] == "homology.reduced_homology"}
    nnz = 0
    for s in spans:
        if s[0] == "complexes.faces_by_dimension" and s[3] in reduce_idx:
            fv = s[4]
            nnz += fv[0] + sum((d + 1) * f for d, f in enumerate(fv) if d >= 1)
    h_calls = calls["homology.reduced_homology"]
    h_distinct = len(set(info("homology.reduced_homology")))
    visited = sum(info("families.members")) + sum(info("families.count_triangle"))
    maximal = info("families.maximal_members")
    m_distinct = len({(kind, n) for kind, n, _ in maximal})
    intervals = 0
    for lat, x, y in info("lattice.mobius"):
        intervals += sum(1 for z in lat.members if lat.leq(x, z) and lat.leq(z, y))
    dfs = values["families.dfs_s"]
    values.update(
        {
            "homology.calls": h_calls,
            "homology.boundary_nnz": nnz,
            "homology.nnz_per_s": _ratio(nnz, values["homology.reduce_self_s"]),
            "homology.distinct_ratio": _ratio(h_distinct, h_calls),
            "cliques.calls": calls["cliques.maximal_cliques"],
            "cliques.found": sum(info("cliques.maximal_cliques")),
            "complexes.faces_total": sum(sum(fv) for fv in info("complexes.faces_by_dimension")),
            "families.members_visited": visited,
            "families.members_per_s": _ratio(visited, dfs),
            "families.maximal_found": sum(found for _, _, found in maximal),
            "families.maximal_distinct_ratio": _ratio(m_distinct, len(maximal)),
            "lattice.interval_size": intervals,
        }
    )
    bases = {
        "homology.distinct_ratio": f"{h_distinct}/{h_calls} distinct complexes by facets / calls",
        "homology.nnz_per_s": f"{nnz} nnz / {values['homology.reduce_self_s']:.4f} s",
        "families.members_per_s": f"{visited} members / {dfs:.4f} s",
        "families.maximal_distinct_ratio": f"{m_distinct}/{len(maximal)} distinct (family, n) / calls",
    }
    top_level = sum(duration[i] for i, s in enumerate(spans) if s[3] < 0)
    return {
        "values": values,
        "bases": bases,
        "calls": dict(calls),
        "homology_call_s": [duration[i] for i in sorted(reduce_idx)],
        "top_level_s": top_level,
    }
