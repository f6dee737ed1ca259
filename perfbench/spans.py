"""Layer names, traced metrics, and the aggregation of recorded spans.

A span is one call that crossed from one layer (module of ``grcodes``) into
another, or a call of a function that a ``*_s`` metric names.  Spans are
stored as columns: ``parent`` (row index, -1 for a root), ``fid`` (index of
the wrapped function), ``thread`` and ``t0``/``t1``, read from the thread's
CPU clock in nanoseconds.  Times are CPU time so that a worker thread
waiting for the interpreter lock is not counted as busy.

A span's self time is its duration minus that of its children on the same
thread.  A child that a thread pool ran on another thread used another
thread's clock, so it is not subtracted: the parent's own clock stood
still while it waited.
"""
from __future__ import annotations

import numpy as np

LAYERS = ("rings", "cyclotomic", "characters", "codes", "gray", "verify", "cli")

# metric -> wrapped functions ("<layer>.<qualname>") whose calls it counts
COUNTS = {
    "rings.mul_calls": ("rings.GaloisRingElement.__mul__",),
    "rings.unit_decompose_calls": ("rings.GaloisRing.unit_decompose",),
    "rings.frobenius_calls": ("rings.GaloisRing.frobenius",),
    "cyclotomic.canonical_calls": ("cyclotomic.CyclotomicInteger.canonical",),
    "cyclotomic.eq_calls": ("cyclotomic.CyclotomicInteger.__eq__",),
    "cyclotomic.arith_calls": tuple(
        f"cyclotomic.CyclotomicInteger.{name}"
        for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "conjugate")
    ),
    "cyclotomic.to_int_calls": ("cyclotomic.CyclotomicInteger.as_rational_integer",),
    "characters.gauss_definition_calls": ("characters.CharacterSystem.gauss_sum_definition",),
    "characters.gauss_closed_calls": ("characters.CharacterSystem.gauss_sum_closed_form",),
    "characters.mult_exponent_calls": ("characters.CharacterSystem.mult_exponent",),
    "codes.formula_calls": ("codes.CodeContext.theorem31_N",),
    "gray.hom_formula_calls": ("gray.theorem44_hom_weight",),
    "verify.records": ("verify.VerificationReport.add",),
}

# metric -> functions whose outermost spans it times (inclusive); these
# functions open a span on every call, not only on a layer crossing
TIMERS = {
    "rings.construct_s": (
        "rings.GaloisRing.__init__", "rings.FiniteField.__init__", "rings.RingTower.__init__",
    ),
    "characters.quotient_chars_s": (
        "characters.ring_quotient_characters", "characters.field_quotient_characters",
    ),
    "codes.build_s": ("codes.build_code", "codes.CodeContext.__init__"),
    "codes.symbol_matrix_s": ("codes.CodeContext.symbol_matrix",),
    "codes.weights_s": (
        "codes.CodeContext.hamming_distribution", "codes.CodeContext.hom_weight_per_beta",
    ),
    "codes.formula_s": ("codes.CodeContext.theorem31_N",),
    "codes.tally_s": ("codes.CodeContext.count_components",),
    "gray.analyze_s": ("gray.gray_image_analyze",),
    "gray.table_s": ("gray.theorem45_table",),
    "gray.hom_formula_s": ("gray.theorem44_hom_weight",),
    "verify.serialize_s": tuple(
        f"verify.VerificationReport.{name}" for name in ("to_json", "to_csv", "to_text")
    ),
}

TIMED_FUNCTIONS = frozenset(name for names in TIMERS.values() for name in names)

# memo -> (wrapped private method, dict attribute it consults)
MEMOS = {
    "rings.teich_cache_hit_ratio": (
        ("rings", "GaloisRing", "teichmuller_decompose", "_teich_cache"),
    ),
    "characters.row_cache_hit_ratio": (
        ("characters", "CharacterSystem", "_mult_row", "_mult_rows"),
        ("characters", "CharacterSystem", "_additive_row", "_add_rows"),
    ),
}


def self_times(parent, thread, t0, t1) -> np.ndarray:
    """Duration of each span minus the durations of its same-thread children."""
    parent = np.asarray(parent, dtype=np.int64)
    thread = np.asarray(thread, dtype=np.int64)
    dur = np.asarray(t1, dtype=np.int64) - np.asarray(t0, dtype=np.int64)
    has_parent = parent >= 0
    same = has_parent & (thread[np.maximum(parent, 0)] == thread)
    return dur - np.bincount(parent[same], weights=dur[same], minlength=len(parent))


def outermost_time(parent, fid, t0, t1, fids) -> int:
    """Summed duration of spans of ``fids`` that no other span of ``fids`` encloses."""
    fids = set(fids)
    rows = np.flatnonzero(np.isin(fid, list(fids)))
    parent, fid = list(parent), list(fid)
    total = 0
    for row in rows:
        up = parent[row]
        while up >= 0 and fid[up] not in fids:
            up = parent[up]
        if up < 0:
            total += int(t1[row] - t0[row])
    return total


def aggregate(trace: dict) -> dict:
    """Per-layer self seconds, named inclusive seconds, counts and memo probes of one job.

    ``trace`` holds the columns above plus ``names`` (fid -> function name),
    ``counts`` (function name -> calls) and ``memos`` (metric -> [hits, calls],
    absent when the memo does not exist).
    """
    names = list(trace["names"])
    layer_of = np.array([LAYERS.index(name.split(".", 1)[0]) for name in names], dtype=np.int64)
    fid = np.asarray(trace["fid"], dtype=np.int64)
    parent = np.asarray(trace["parent"], dtype=np.int64)
    t0, t1 = trace["t0"], trace["t1"]
    own = self_times(parent, trace["thread"], t0, t1)
    per_layer = np.bincount(layer_of[fid], weights=own, minlength=len(LAYERS))
    out = {f"{layer}.self_s": float(per_layer[i]) / 1e9 for i, layer in enumerate(LAYERS)}
    index = {name: i for i, name in enumerate(names)}
    for metric, funcs in TIMERS.items():
        fids = [index[f] for f in funcs if f in index]
        out[metric] = outermost_time(parent, fid, t0, t1, fids) / 1e9
    counts = trace["counts"]
    for metric, funcs in COUNTS.items():
        out[metric] = sum(counts.get(f, 0) for f in funcs)
    out["memos"] = dict(trace["memos"])
    out["spans"] = int(len(fid))
    return out
