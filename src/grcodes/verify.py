"""Identity-verification suites: closed forms against exhaustive enumeration.

Every suite produces a VerificationReport whose records each carry a check
id, an anchor naming the identity being exercised, the predicted value, the
observed value, and an exact pass/fail verdict.  Reports are deterministic:
sweeps run in one thread, in index order, so identical inputs give
byte-identical serializations.  ``json_text`` writes every JSON report,
these and the CLI's: dicts with ``str`` keys, lists, strings, ints, bools
and None by exact type, and any other payload through ``json.dumps``.
Suites 4.4-4.6 import ``gray`` when they run, and ``codes`` is named only
in annotations, so suite 2.1 loads neither.
"""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .characters import CharacterSystem
from .cyclotomic import canonical_text, exact_int
from .rings import GaloisRing, format_element

if TYPE_CHECKING:
    from .codes import CodeContext


# exact types whose JSON text is one call
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _put(value, newline: str, out) -> None:
    """Write value by exact type; raises KeyError, TypeError or RecursionError on anything else."""
    kind = type(value)
    if kind is not dict and kind is not list:
        return out(_LEAF_TEXT[kind](value))
    if not value:
        return out("{}" if kind is dict else "[]")
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise KeyError(key)
            out(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _put(item, inner, out)
        return out(newline + "}")
    kinds = set(map(type, value))
    leaf = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if leaf is not None:  # leaves of one exact type: one join
        return out("[" + inner + ("," + inner).join(map(leaf, value)) + newline + "]")
    sep = "[" + inner
    for item in value:
        out(sep)
        sep = "," + inner
        _put(item, inner, out)
    out(newline + "]")


def json_text(payload, depth: int = 0) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, and its errors.

    Reports hold only ``dict`` with ``str`` keys, ``list``, ``str``, ``int``,
    ``bool`` and ``None``.  Those exact types are written here into one list,
    since Python 3.10-3.12 encode ``indent`` in pure Python, one generator
    step per token; any other payload (a float, a tuple, another key type, a
    subclass, a cycle) goes whole to ``json.dumps``.  ``depth`` writes the
    payload as a value nested that many levels deep in a larger report:
    every line after the first is indented by 2 * depth more spaces.
    """
    newline = "\n" + "  " * depth
    parts: list[str] = []
    try:
        _put(payload, newline, parts.append)
    except (KeyError, TypeError, RecursionError):
        return json.dumps(payload, sort_keys=True, indent=2).replace("\n", newline)
    return "".join(parts)


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    predicted: str
    observed: str

    @property
    def ok(self) -> bool:
        return self.predicted == self.observed


@dataclass
class VerificationReport:
    suite: str
    params: dict
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def add(self, check_id: str, anchor: str, predicted, observed) -> None:
        self.records.append(CheckRecord(check_id, anchor, str(predicted), str(observed)))

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "params": self.params,
            "summary": {"passed": self.passed, "failed": self.failed},
            "records": [
                {
                    "check": r.check_id,
                    "anchor": r.anchor,
                    "predicted": r.predicted,
                    "observed": r.observed,
                    "verdict": "pass" if r.ok else "FAIL",
                }
                for r in self.records
            ],
        }
        return json_text(payload) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "anchor", "predicted", "observed", "verdict"])
        for r in self.records:
            writer.writerow(
                [r.check_id, r.anchor, r.predicted, r.observed, "pass" if r.ok else "FAIL"]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  params {json.dumps(self.params, sort_keys=True)}"]
        for r in self.records:
            mark = "pass" if r.ok else "FAIL"
            lines.append(
                f"  [{mark}] {r.check_id} ({r.anchor}): predicted {r.predicted}, "
                f"observed {r.observed}"
            )
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_gauss_equivalence(ring: GaloisRing, full: bool = False) -> VerificationReport:
    """Closed-form Gauss sums against the definitional sums, all (chi, lambda).

    A pair matches when the canonical rows of its two routes are equal.
    Without ``full`` only the first mismatching beta of each chi is printed;
    with it, each distinct canonical row is printed once and reused.
    """
    report = VerificationReport(
        "2.1", {"p": ring.p, "r": ring.r, "modulus": list(ring.modulus)}
    )
    system = CharacterSystem(ring)
    text = functools.cache(functools.partial(canonical_text, system.m))
    betas = [format_element(beta) for beta in ring.elements()]
    anchor = "2.1-closed-vs-definition"
    total_pairs = 0
    total_bad = 0
    for i, b in system.all_mult_chars():
        closed, definition, _ = system.gauss_sum_rows((i, b))
        mismatches = [k for k, (lhs, rhs) in enumerate(zip(closed, definition)) if lhs != rhs]
        total_pairs += len(betas)
        total_bad += len(mismatches)
        chi = f"i{i}-b{format_element(b)}"
        if full:
            for beta, lhs, rhs in zip(betas, closed, definition):
                report.add(f"pair-{chi}-beta{beta}", anchor, text(lhs), text(rhs))
        elif mismatches:
            k = mismatches[0]
            report.add(f"char-{chi}", anchor, text(closed[k]), text(definition[k]))
    if not full:
        report.add(
            "all-pairs",
            anchor,
            f"{total_pairs} pairs equal",
            f"{total_pairs - total_bad} pairs equal",
        )
    return report


def _ctx_params(ctx: CodeContext) -> dict:
    return {
        "p": ctx.p,
        "r": ctx.r,
        "s": ctx.s,
        "sprime": ctx.sprime,
        "e": ctx.e,
        "d": ctx.d,
        "n": ctx.n,
        "e_prime": ctx.e_prime,
        "modulus": list(ctx.big.modulus),
        "vbar_basis": list(ctx.spec.vbar_basis),
    }


def suite_component_counts(ctx: CodeContext, full: bool = False) -> VerificationReport:
    """Character-sum symbol counts against direct tallies, all (beta, a)."""
    report = VerificationReport("3.1", _ctx_params(ctx))
    symbols = list(ctx.small.elements())
    beta_codes = range(ctx.Q * ctx.Q)
    counts = ctx.symbol_counts()
    for code in beta_codes:
        beta = ctx.big.from_code(code)
        pred = [ctx.theorem31_N(beta, a) for a in symbols]
        obs = counts[code].tolist()
        if full or pred != obs:
            report.add(
                f"beta-{format_element(beta)}", "3.1-formula-vs-enumeration", pred, obs
            )
    report.add(
        "all-beta",
        "3.1-formula-vs-enumeration",
        f"{len(beta_codes)} component vectors equal",
        f"{len(beta_codes) - report.failed} component vectors equal",
    )
    bounds = ctx.bounds_M1_M2()
    bounds_text = f"M1={bounds.m1} M2={bounds.m2} verdict={bounds.verdict}"
    report.add("bounds-exact", "3.1(3)-bounds", bounds_text, bounds_text)
    if bounds.verdict:
        table = ctx.hamming_distribution()
        report.add("size-when-bounded", "3.1(3)-size", ctx.Q * ctx.Q, table.size)
        report.add(
            "distance-when-bounded", "3.1(3)-distance", bounds.d_hamming, table.min_hamming
        )
    return report


def _table_report_records(report, table, anchor: str) -> None:
    for row in table.rows:
        report.add(
            f"cell-{row.beta_class}-{row.a_class}", anchor, row.predicted, row.enumerated
        )
    for name, (pred, obs) in sorted(table.class_counts.items()):
        report.add(f"count-{name}", anchor + "-class-count", pred, obs)
    for name, (pred, obs) in sorted(table.extras.items()):
        report.add(name, anchor, pred, obs)


def suite_table1(ctx: CodeContext, full: bool = False) -> VerificationReport:
    report = VerificationReport("3.3", _ctx_params(ctx))
    _table_report_records(report, ctx.theorem33_table(), "3.3-table-1")
    # the zero-count chain separating the three nonzero beta classes
    q, Q, pd, n = ctx.q, ctx.Q, ctx.p**ctx.d, ctx.n
    lo = Fraction(pd * (Q - q * q), q * q)
    mid = lo + Fraction(Q * (q - 1), q)
    hi = Fraction(pd * (Q - q), q)
    report.add(
        "zero-count-chain",
        "3.3-inequality-chain",
        "lo < mid <= hi < n",
        "lo < mid <= hi < n" if lo < mid <= hi < n else f"violated: {lo}, {mid}, {hi}, {n}",
    )
    max_zeros = int(ctx.symbol_counts()[1:, 0].max())
    report.add(
        "distinct-codewords",
        "3.3-inequality-chain",
        f"max zero count over nonzero beta < {n}",
        f"max zero count over nonzero beta < {n}"
        if max_zeros < n
        else f"some nonzero beta encodes the zero word ({max_zeros})",
    )
    return report


def suite_params_34(ctx: CodeContext, full: bool = False) -> VerificationReport:
    report = VerificationReport("3.4", _ctx_params(ctx))
    for name, (pred, obs) in ctx.theorem34_params().items():
        report.add(name, "3.4-parameters", pred, obs)
    return report


def suite_hom_weights(ctx: CodeContext, full: bool = False) -> VerificationReport:
    """Closed-form homogeneous weights against direct weights, all beta, one formula per orbit."""
    from .gray import theorem44_hom_weight

    report = VerificationReport("4.4", _ctx_params(ctx))
    weights = ctx.hom_weight_per_beta()
    tilde = ctx.build_tilde_code()
    tilde_weights = ctx.tilde_symbol_counts() @ ctx._symbol_hom_weights()
    index, reps, _ = ctx.beta_orbits()
    per_orbit = [theorem44_hom_weight(ctx, ctx.big.from_code(rep)) for rep in reps.tolist()]
    formula = np.array(per_orbit)[index]
    shown = range(len(weights)) if full else np.flatnonzero(formula != weights).tolist()
    for code in shown:
        beta = format_element(ctx.big.from_code(code))
        report.add(f"beta-{beta}", "4.4-formula-vs-direct", formula[code], weights[code])
    bad_scaling = np.count_nonzero((formula % tilde.l != 0) | (formula // tilde.l != tilde_weights))
    report.add(
        "all-beta",
        "4.4-formula-vs-direct",
        f"{len(weights)} weights equal",
        f"{len(weights) - report.failed} weights equal",
    )
    report.add(
        "tilde-scaling",
        "4.4-tilde-scaling",
        f"w(ctilde) = w(c)/{tilde.l} for all beta",
        f"w(ctilde) = w(c)/{tilde.l} for all beta"
        if bad_scaling == 0
        else f"{bad_scaling} beta violate the scaling",
    )
    return report


def suite_table2(ctx: CodeContext, full: bool = False) -> VerificationReport:
    from .gray import theorem45_table

    report = VerificationReport("4.5", _ctx_params(ctx))
    _table_report_records(report, theorem45_table(ctx), "4.5-table-2")
    return report


def suite_gray_images(ctx: CodeContext, full: bool = False) -> VerificationReport:
    """Two-distance property and closed-form distances of the Gray images."""
    from .gray import gray_image_analyze

    report = VerificationReport("4.6", _ctx_params(ctx))
    ctx._require_table_hypotheses(need_e_one=False)
    q, Q, pd, e = ctx.q, ctx.Q, ctx.p**ctx.d, ctx.e
    exact = lambda num, den: exact_int(Fraction(num, den), "Gray image closed form")

    plain = gray_image_analyze(ctx, "C")
    tilde = gray_image_analyze(ctx, "Ctilde")
    report.add("length-C", "4.6-lengths", exact((Q - 1) * q * pd, e), plain.length)
    report.add("length-Ctilde", "4.6-lengths", exact((Q - 1) * pd, q - 1), tilde.length)
    report.add("size-C", "4.6-sizes", Q * Q, plain.size)
    report.add("size-Ctilde", "4.6-sizes", Q * Q, tilde.size)
    report.add("two-distance-C", "4.6-two-distance", True, plain.two_distance)
    report.add("two-distance-Ctilde", "4.6-two-distance", True, tilde.two_distance)
    report.add(
        "min-distance-C", "4.6-distances", exact(Q * (q - 1) * (pd - 1), e), plain.min_distance
    )
    report.add(
        "min-distance-Ctilde", "4.6-distances", exact(Q * (pd - 1), q), tilde.min_distance
    )
    # weight multiset transfer through the isometry
    hom = ctx.hamming_distribution().homogeneous
    report.add(
        "weight-transfer-C",
        "4.6-weight-multiset",
        sorted(hom.items()),
        sorted(plain.weights.items()),
    )
    return report


# each suite is called as suite(target, full): a GaloisRing for 2.1, else a CodeContext
SUITES = {
    "2.1": ("gauss-sum equivalence", suite_gauss_equivalence),
    "3.1": ("component counts", suite_component_counts),
    "3.3": ("complete weight table", suite_table1),
    "3.4": ("code parameters", suite_params_34),
    "4.4": ("homogeneous weights", suite_hom_weights),
    "4.5": ("homogeneous weight table", suite_table2),
    "4.6": ("gray image codes", suite_gray_images),
}
