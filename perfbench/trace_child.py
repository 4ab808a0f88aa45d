"""Traced wmorse entrypoint: the CLI call of an untraced run, with spans.

Usage: python3 perfbench/trace_child.py OUT CALL_ID -- WMORSE_ARGS...

Before calling wmorse.cli.main, every public function of the layer
modules (and the construction and coface-query methods of the complex
classes) is replaced by a wrapper that records a span. A replaced
function is rebound under every name a wmorse module holds it by, so
calls through cross-module imports such as wmorse.homology's
smith_normal_form are traced too. Spans and counts stay in memory and
are written out when main returns: the spans to OUT.spans as native
int64 records, everything else (call id, span names, counts) to OUT as
JSON.

A span record is (id, parent id, name index, wall start ns, wall end ns,
thread CPU ns). Parents are tracked per thread; spans opened on worker threads of
the program's own pool are roots. CPU time of the calling thread is what
self times are computed from, because under the interpreter lock the
wall-clock spans of concurrent threads overlap.

Recording a span costs CPU time that lands partly inside the span and
partly in its parent. Both parts are measured on a no-op function before
main runs and written out, so self times can be corrected for them.
"""

from __future__ import annotations

import array
import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "documents", "complexes", "sequence", "homology", "snf", "collapse", "morse")

# Per-element helpers called inside other layers' inner loops; a span
# around each would cost more than the call it measures.
UNWRAPPED = {"complexes.simplex", "complexes.faces", "complexes.dim", "morse.to_fraction"}

METHODS = {
    "complexes": {
        "SimplicialComplex": ("__init__", "proper_cofaces", "cofacets", "free_coface",
                              "is_maximal", "maximal_simplices", "without"),
        "WeightedComplex": ("__init__", "restrict", "without"),
    },
}


class Recorder:
    """Spans and counters of one traced call."""

    def __init__(self):
        self.spans = array.array("q")
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: int) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn, observe=None):
        ids, spans, local = self._ids, self.spans, self._local
        wall, cpu = time.perf_counter_ns, time.thread_time_ns
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            w0, c0 = wall(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), wall()
                stack.pop()
                spans.extend((sid, parent, name_id, w0, w1, c1 - c0))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


# --- counters taken from arguments and results -----------------------------------

def _snf(rec, args, kwargs, dec):
    A = args[0]
    rec.add("snf.calls")
    if kwargs.get("want_transforms", args[1] if len(args) > 1 else False):
        rec.add("snf.transform_calls")
    rec.high("snf.max_cells", A.rows * A.cols)
    rec.add("snf.rank", dec.rank)
    rec.add("snf.unit_factors", sum(1 for d in dec.factors if d == 1))
    rec.high("snf.max_factor_bits", max((d.bit_length() for d in dec.factors), default=0))


def _boundary(rec, args, kwargs, M):
    rec.add("homology.boundary_cells", M.rows * M.cols)
    rec.add("homology.boundary_nonzeros", len(M.entries) - M.entries.count(0))


def _order_complex(rec, args, kwargs, oc):
    rec.add("sequence.chains", len(oc.complex))


def _weighted_init(rec, args, kwargs, result):
    rec.add("complexes.build_calls")


def _coface_query(rec, args, kwargs, result):
    rec.add("complexes.coface_calls")


def _collapse_step(rec, args, kwargs, result):
    rec.add("collapse.steps")


def _verdict(rec, args, kwargs, verdict):
    if verdict.verdict.value == "same-weight":
        rec.add("collapse.same_weight")


def _complex_records(rec, args, kwargs, result):
    rec.add("documents.records", len(result[0]))


def _morse_records(rec, args, kwargs, f):
    rec.add("documents.records", len(f.items()))


def _fasta_records(rec, args, kwargs, records):
    rec.add("documents.records", len(records))


OBSERVERS = {
    "snf.smith_normal_form": _snf,
    "homology.boundary_matrix": _boundary,
    "sequence.order_complex": _order_complex,
    "complexes.WeightedComplex.__init__": _weighted_init,
    "complexes.SimplicialComplex.proper_cofaces": _coface_query,
    "complexes.SimplicialComplex.cofacets": _coface_query,
    "complexes.SimplicialComplex.free_coface": _coface_query,
    "complexes.SimplicialComplex.is_maximal": _coface_query,
    "collapse.elementary_collapse": _collapse_step,
    "collapse.check_preservation": _verdict,
    "documents.load_complex_document": _complex_records,
    "documents.load_morse_document": _morse_records,
    "documents.read_fasta": _fasta_records,
}


def install(rec: Recorder) -> None:
    """Wrap the layers' public functions and rebind every reference."""
    import importlib

    modules = {layer: importlib.import_module(f"wmorse.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items() if name == "wmorse" or name.startswith("wmorse.")]
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = rec.wrap(name, fn, OBSERVERS.get(name))
            for m in package:
                for other, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, other, traced)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, rec.wrap(name, getattr(cls, method), OBSERVERS.get(name)))


def calibrate(rounds: int = 5000) -> dict[str, float]:
    """Tracing cost per span in CPU ns: inside the span, and around it."""
    probe = Recorder()

    def noop():
        pass

    traced = probe.wrap("probe", noop)
    cpu = time.thread_time_ns
    t0 = cpu()
    for _ in range(rounds):
        noop()
    t1 = cpu()
    for _ in range(rounds):
        traced()
    t2 = cpu()
    bare = (t1 - t0) / rounds
    inside = sum(probe.spans[5::6]) / rounds - bare
    return {"inside": inside, "around": (t2 - t1) / rounds - bare - inside}


def main() -> int:
    out_path, call_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py OUT CALL_ID -- WMORSE_ARGS...")
    overhead = calibrate()
    rec = Recorder()
    install(rec)
    import wmorse.cli

    code = 1
    try:
        code = wmorse.cli.main(argv)
    finally:
        with open(out_path + ".spans", "wb") as fh:
            rec.spans.tofile(fh)
        with open(out_path, "w") as fh:
            json.dump({"call_id": int(call_id), "names": rec.names, "counts": rec.counts,
                       "maxima": rec.maxima, "overhead_ns": overhead}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
