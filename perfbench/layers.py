"""Per-layer metrics from the spans trace_child.py writes.

A span's self time is its thread CPU time minus the CPU time of its
direct child spans (children run on the parent's thread, inside its
interval, so they cover exactly that much of it), less the tracing cost
the child measured for one span inside it and one span around each
child. Self times are summed
into one time metric per span name, and the time metrics of a layer
partition that layer's self time: a public function not named below
counts toward its layer's catch-all metric.
"""

from __future__ import annotations

import array
import json

TIME_METRIC = {
    "complexes.SimplicialComplex.proper_cofaces": "complexes.coface_s",
    "complexes.SimplicialComplex.cofacets": "complexes.coface_s",
    "complexes.SimplicialComplex.free_coface": "complexes.coface_s",
    "complexes.SimplicialComplex.is_maximal": "complexes.coface_s",
    "complexes.SimplicialComplex.maximal_simplices": "complexes.coface_s",
    "sequence.substrings": "sequence.order_complex_s",
    "sequence.order_complex": "sequence.order_complex_s",
    "homology.chain_bases": "homology.boundary_s",
    "homology.boundary_matrix": "homology.boundary_s",
    "homology.boundary_matrices": "homology.boundary_s",
    "homology.homology_class_order": "homology.class_order_s",
    "collapse.greedy_collapse": "collapse.greedy_s",
    "collapse.collapse_sequence": "collapse.sequence_s",
    "collapse.elementary_removal": "collapse.removal_s",
    "morse.validate_morse": "morse.validate_s",
    "morse.level_subcomplex": "morse.level_s",
    "morse.in_level": "morse.level_s",
    "morse.morse_collapse": "morse.collapse_s",
    "morse.critical_window": "morse.window_s",
}

CATCH_ALL = {
    "cli": "cli.main_s",
    "documents": "documents.load_s",
    "complexes": "complexes.build_s",
    "sequence": "sequence.weighting_s",
    "homology": "homology.self_s",
    "snf": "snf.reduce_s",
    "collapse": "collapse.step_s",
    "morse": "morse.classify_s",
}

TIME_METRICS = sorted(set(TIME_METRIC.values()) | set(CATCH_ALL.values()))

COUNTS = [
    "documents.records",
    "complexes.build_calls",
    "complexes.coface_calls",
    "sequence.chains",
    "homology.boundary_nonzeros",
    "homology.boundary_cells",
    "snf.calls",
    "snf.transform_calls",
    "snf.rank",
    "collapse.steps",
]

MAXIMA = ["snf.max_cells", "snf.max_factor_bits"]


def metric_of(name: str) -> str:
    return TIME_METRIC.get(name) or CATCH_ALL[name.split(".", 1)[0]]


class Accumulator:
    """Self times and counters summed over the traced calls of a run."""

    def __init__(self):
        self.self_ns = {m: 0 for m in TIME_METRICS}
        self.counts = {c: 0 for c in COUNTS + ["snf.unit_factors", "collapse.same_weight"]}
        self.maxima = {m: 0 for m in MAXIMA}
        self.spans = 0

    def add(self, out_path: str) -> None:
        """Fold in one traced call's output files (see trace_child.py)."""
        with open(out_path) as fh:
            record = json.load(fh)
        spans = array.array("q")
        with open(out_path + ".spans", "rb") as fh:
            spans.frombytes(fh.read())
        metric = [metric_of(name) for name in record["names"]]
        sids, parents, name_ids, cpus = spans[0::6], spans[1::6], spans[2::6], spans[5::6]
        inside, around = record["overhead_ns"]["inside"], record["overhead_ns"]["around"]
        child_cost: dict[int, float] = {}
        for parent, cpu in zip(parents, cpus):
            if parent:
                child_cost[parent] = child_cost.get(parent, 0) + cpu + around
        for sid, name_id, cpu in zip(sids, name_ids, cpus):
            self.self_ns[metric[name_id]] += cpu - inside - child_cost.get(sid, 0)
        self.spans += len(sids)
        for k, v in record["counts"].items():
            self.counts[k] += v
        for k, v in record["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)

    @property
    def self_total_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {m: (ns / 1e9, "s") for m, ns in self.self_ns.items()}
        out.update({c: (self.counts[c], "count") for c in COUNTS})
        out.update({m: (v, "count" if m == "snf.max_cells" else "bits") for m, v in self.maxima.items()})
        rank, steps = self.counts["snf.rank"], self.counts["collapse.steps"]
        out["snf.unit_factor_ratio"] = (self.counts["snf.unit_factors"] / rank if rank else 0.0, "ratio")
        out["collapse.same_weight_ratio"] = (
            self.counts["collapse.same_weight"] / steps if steps else 0.0, "ratio")
        return out


def trace_metrics(acc: Accumulator, calls: int, plain_s: float, traced_s: float,
                  setup_s: float) -> dict[str, tuple[float, str]]:
    """Overhead and the accounting of untraced time by layer self times.

    untraced_net_s is the untraced calls' wall time less one set-up time
    per call; unaccounted_s is what the layers' self times leave of it,
    which should be smaller in size than overhead_s.
    """
    net = plain_s - calls * setup_s
    return {
        "trace.calls": (calls, "count"),
        "trace.spans": (acc.spans, "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.untraced_net_s": (net, "s"),
        "trace.self_total_s": (acc.self_total_s, "s"),
        "trace.unaccounted_s": (net - acc.self_total_s, "s"),
    }
