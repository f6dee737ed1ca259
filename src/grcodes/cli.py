"""Command-line front end.

Subcommands: ``ring info``, ``gauss``, ``code build|weights|verify``,
``gray map|analyze``.  Element literals are comma-separated little-endian
coefficients ("3,2" = 3 + 2*xi mod p^2); field literals use the same shape
mod p.  Exit codes: 0 success, 1 verification mismatch, 2 invalid usage.

Reports are deterministic byte-for-byte for identical inputs; timing goes
to stderr only.  --threads (1..64) is accepted for compatibility and has
no effect: every sweep runs in one thread.

Importing this module loads only the standard library and ``errors``, so
``--help`` and usage errors load no numpy.  Each handler imports the layers
it uses when it runs: ``gauss`` and ``code verify --theorem 2.1`` load
neither ``codes`` nor ``gray``.  The ``elapsed:`` line on stderr times the
handler, which includes loading those layers.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import GRCodesError

if TYPE_CHECKING:
    from .characters import CharacterSystem
    from .codes import CodeContext
    from .rings import GaloisRing
    from .verify import VerificationReport

# the keys of verify.SUITES, which --theorem needs before any layer is loaded
THEOREMS = ("2.1", "3.1", "3.3", "3.4", "4.4", "4.5", "4.6")

# every run option and its default, in the order RunConfig's repr lists them
_DEFAULTS = {
    "p": None, "r": None, "s": None, "sprime": None, "e": None, "d": None, "vbar": None,
    "modulus": None, "format": "text", "output": None, "threads": 1, "allow_large": False,
    "full": False, "theorem": None, "which": "C", "chi_i": 0, "chi_b": "0", "beta": "0",
    "sweep": False, "dump_sums": False,
}
CONFIG_KEYS = tuple(_DEFAULTS)
_INT_KEYS = {"p", "r", "s", "sprime", "e", "d", "threads", "chi_i"}
_BOOL_KEYS = {"allow_large", "full", "sweep", "dump_sums"}


class RunConfig(SimpleNamespace):
    """Flat bag of run options; file values are overridden by explicit flags."""

    def __init__(self, **values):
        for key in values:
            if key not in _DEFAULTS:
                raise TypeError(f"RunConfig.__init__() got an unexpected keyword argument {key!r}")
        super().__init__(**{**_DEFAULTS, **values})

    @classmethod
    def from_file_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _BOOL_KEYS:
                setattr(cfg, key, value.lower() in ("1", "true", "yes"))
            else:
                setattr(cfg, key, value)
        return cfg


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_file_text(fh.read())
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# shared builders and emitters
# ---------------------------------------------------------------------------

def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise GRCodesError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _parse_modulus(cfg: RunConfig) -> list[int] | None:
    if cfg.modulus is None:
        return None
    return [int(part) for part in cfg.modulus.split(",")]


def _build_ring(cfg: RunConfig) -> GaloisRing:
    from .rings import GaloisRing

    _require(cfg, "p", "r")
    return GaloisRing(cfg.p, cfg.r, modulus=_parse_modulus(cfg), allow_large=cfg.allow_large)


def _parse_vbar(cfg: RunConfig) -> list[int] | None:
    """--vbar as codes of the big residue field F_{p^(r s)}; x^j has the code p^j."""
    from .rings import parse_field_element

    if cfg.vbar is None:
        return None
    degree = cfg.r * cfg.s
    token = cfg.vbar.strip().lower()
    if token == "full":
        return [cfg.p**j for j in range(degree)]
    if token == "zero":
        return []
    return [parse_field_element(cfg.p, degree, row) for row in cfg.vbar.split(";")]


def _build_context(cfg: RunConfig) -> CodeContext:
    from .codes import build_code

    _require(cfg, "p", "r", "s", "e")
    return build_code(
        cfg.p, cfg.r, cfg.s, cfg.e,
        vbar_basis=_parse_vbar(cfg), d=cfg.d, sprime=cfg.sprime,
        modulus=_parse_modulus(cfg), allow_large=cfg.allow_large,
    )


@contextlib.contextmanager
def _output(cfg: RunConfig):
    """The write function of the report's destination: ``--output`` or stdout."""
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _emit(cfg: RunConfig, text: str) -> None:
    with _output(cfg) as write:
        write(text)


def _kv_csv(rows: list[tuple[str, str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# ring info
# ---------------------------------------------------------------------------

def cmd_ring_info(cfg: RunConfig) -> int:
    from .rings import format_element
    from .verify import json_text

    ring = _build_ring(cfg)
    q = ring.q
    payload = {
        "p": ring.p,
        "r": ring.r,
        "q": q,
        "modulus": list(ring.modulus),
        "modulus_literal": ",".join(str(c) for c in ring.modulus),
        "xi_order": q - 1,
        "xi_order_ok": True,
        "size": q * q,
        "maximal_ideal_size": q,
        "units": q * (q - 1),
        "trace_of_xi": ring.trace_to_prime(ring.xi),
        "trace_of_one": ring.trace_to_prime(ring.one),
    }
    if q <= 32:
        payload["teichmuller"] = [format_element(t) for t in ring.teichmuller_set()]
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    elif cfg.format == "csv":
        rows = [("ring", k, json.dumps(v)) for k, v in sorted(payload.items())]
        _emit(cfg, _kv_csv(rows))
    else:
        lines = [f"GR({ring.p}^2,{ring.r})  modulus {payload['modulus_literal']}"]
        lines.append(f"  |R| = {q * q}, |M| = {q}, |R*| = {q * (q - 1)}")
        lines.append(f"  xi has exact order {q - 1}")
        if "teichmuller" in payload:
            lines.append("  Teichmuller set: " + "  ".join(payload["teichmuller"]))
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gauss
# ---------------------------------------------------------------------------

def cmd_gauss(cfg: RunConfig) -> int:
    from .characters import CharacterSystem
    from .rings import format_element, parse_element
    from .verify import json_text

    ring = _build_ring(cfg)
    system = CharacterSystem(ring)
    if cfg.sweep:
        return _gauss_sweep(cfg, ring, system)
    b = parse_element(ring, cfg.chi_b)
    if b.coeffs not in ring.teichmuller_log and not b.is_zero():
        raise GRCodesError(f"chi_b must be a Teichmuller element, got {cfg.chi_b!r}")
    chi, beta = (cfg.chi_i, b), parse_element(ring, cfg.beta)
    closed = system.gauss_sum_closed_form(chi, beta)
    definition = system.gauss_sum_definition(chi, beta)
    payload = {
        "chi_i": cfg.chi_i,
        "chi_b": format_element(b),
        "beta": format_element(beta),
        "equal": closed == definition,
        "closed": repr(closed),
        "definition": repr(definition),
        "magnitude_approx": f"{abs(definition.approx()):.6f}",
    }
    if cfg.dump_sums or cfg.format == "json":
        payload["closed_coeffs"] = {"m": system.m, "coeffs": list(closed.canonical())}
        payload["definition_coeffs"] = {"m": system.m, "coeffs": list(definition.canonical())}
    ok = payload["equal"]
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    else:
        _emit(
            cfg,
            f"chi = (i={payload['chi_i']}, b={payload['chi_b']}), "
            f"lambda_beta with beta={payload['beta']}\n"
            f"  definition:  {payload['definition']}\n"
            f"  closed form: {payload['closed']}\n"
            f"  |G| ~ {payload['magnitude_approx']} (approximate), "
            f"verdict {'EQUAL' if ok else 'DIFFER'}\n",
        )
    return 0 if ok else 1


# one sweep record, as json_text writes it inside the report's "records" list; the
# keys are in its sorted order, which is also the order of the % arguments
_SWEEP_RECORD = "    {\n" + ",\n".join(
    f'      "{key}": %s'
    for key in ("beta", "chi_b", "chi_i", "closed", "closed_coeffs", "definition",
                "definition_coeffs", "equal", "magnitude_approx")
) + "\n    }"


def _gauss_sweep(cfg: RunConfig, ring: GaloisRing, system: CharacterSystem) -> int:
    """Both Gauss-sum routes on every (chi, beta); the JSON report with records is streamed.

    Records exist only in the JSON report (``--full`` or ``--dump-sums``).
    ``all_equal`` precedes them in it, so every chi is checked before the
    first record is written, and each record is kept meanwhile as references
    into two tables of JSON texts: the repr and coeffs block of each distinct
    canonical row, and the magnitude of each distinct definitional row.
    """
    from .cyclotomic import canonical_text, complex_value
    from .rings import format_element
    from .verify import json_text

    m = system.m
    records = cfg.format == "json" and (cfg.full or cfg.dump_sums)
    magnitudes: dict[bytes, str] = {}  # definitional row -> its magnitude text

    @functools.cache
    def value(row):  # a canonical row -> its repr and coeffs block
        return json_text(canonical_text(m, row)), json_text({"m": m, "coeffs": list(row)}, depth=3)

    def magnitude(row):
        key = row.tobytes()
        text = magnitudes.get(key)
        if text is None:
            (k,) = row.nonzero()
            approx = complex_value(m, zip(k.tolist(), row[k].tolist()))
            text = magnitudes[key] = json_text(f"{abs(approx):.6f}")
        return text

    kept = []
    pairs, all_equal = 0, True
    for chi in system.all_mult_chars():
        closed, definition, sums = system.gauss_sum_rows(chi)
        pairs += len(closed)
        all_equal = all_equal and closed == definition
        if records:
            kept.append((
                json_text(chi[0]), json_text(format_element(chi[1])),
                [value(row) for row in closed], [value(row) for row in definition],
                [magnitude(row) for row in sums],
            ))
    expected = ring.q * (ring.q - 1) * ring.q * ring.q
    ok = all_equal and pairs == expected
    summary = {"pairs": pairs, "pairs_expected": expected, "all_equal": all_equal}
    if not records:
        if cfg.format == "json":
            _emit(cfg, json_text(summary) + "\n")
        else:
            _emit(cfg, f"{pairs} pairs checked, verdict {'EQUAL' if ok else 'DIFFER'}\n")
        return 0 if ok else 1
    betas = [json_text(format_element(beta)) for beta in ring.elements()]
    flag = {True: json_text(True), False: json_text(False)}
    with _output(cfg) as write:
        head = json_text(summary)  # ends in "\n}", and "records" sorts after its keys
        write(head[:-2] + ',\n  "records": [\n')
        sep = ""
        for chi_i, chi_b, closed, definition, mags in kept:
            # equal rows share one texts entry, so `is` compares the rows
            write(sep + ",\n".join(
                _SWEEP_RECORD % (beta, chi_b, chi_i, *lhs, *rhs, flag[lhs is rhs], mag)
                for beta, lhs, rhs, mag in zip(betas, closed, definition, mags)
            ))
            sep = ",\n"
        write("\n  ]\n}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# code build / weights / verify
# ---------------------------------------------------------------------------

def cmd_code_build(cfg: RunConfig) -> int:
    from .rings import format_element, format_field_element
    from .verify import json_text

    ctx = _build_context(cfg)
    tilde = ctx.build_tilde_code()
    payload = {
        "p": ctx.p, "r": ctx.r, "s": ctx.s, "sprime": ctx.sprime,
        "e": ctx.e, "f": ctx.f, "d": ctx.d, "e_prime": ctx.e_prime,
        "n": ctx.n,
        "modulus": list(ctx.big.modulus),
        "subring_modulus": list(ctx.small.modulus),
        "vbar_basis": [
            format_field_element(ctx.big.residue_field, v) for v in ctx.spec.vbar_basis
        ],
        "stabilizer_size": tilde.l,
        "n_tilde": tilde.n_prime,
    }
    if ctx.n <= 64:
        payload["group_elements"] = [format_element(x) for x in ctx.group_elements]
    if ctx.sprime is not None:
        payload["vbar_perp_in_subfield"] = ctx.vperp_in_subfield
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    elif cfg.format == "csv":
        _emit(cfg, _kv_csv([("code", k, json.dumps(v)) for k, v in sorted(payload.items())]))
    else:
        _emit(
            cfg,
            f"code over GR({ctx.p}^2,{ctx.r}) from GR({ctx.p}^2,{ctx.r * ctx.s}): "
            f"n={ctx.n} (f={ctx.f}, p^d={ctx.p ** ctx.d}), e'={ctx.e_prime}, "
            f"tilde length {tilde.n_prime}\n",
        )
    return 0


def cmd_code_weights(cfg: RunConfig) -> int:
    from .rings import format_element
    from .verify import json_text

    ctx = _build_context(cfg)
    table = ctx.hamming_distribution()
    payload = {
        "modulus": list(ctx.big.modulus),
        "subring_modulus": list(ctx.small.modulus),
        "n": table.n,
        "size": table.size,
        "min_hamming": table.min_hamming,
        "min_homogeneous": table.min_homogeneous,
        "hamming": {str(k): v for k, v in sorted(table.hamming.items())},
        "homogeneous": {str(k): v for k, v in sorted(table.homogeneous.items())},
        "complete": [
            {"counts": list(key), "betas": value}
            for key, value in sorted(table.complete.items())
        ],
    }
    if cfg.full:
        # symbol_matrix spot-checks its rows against the element-wise encoder
        mat = ctx.symbol_matrix()
        counts = ctx.symbol_counts().tolist()
        hom = ctx.hom_weight_per_beta().tolist()
        names = [format_element(ctx.small.from_code(a)) for a in range(ctx.q * ctx.q)]
        classes = ctx.beta_classes() if ctx.sprime is not None and ctx.s_dual is not None else None
        rows = []
        for code in range(ctx.Q * ctx.Q):
            row = {
                "beta": format_element(ctx.big.from_code(code)),
                "symbols": [names[c] for c in mat[code].tolist()],
                "counts": counts[code],
                "w_hamming": ctx.n - counts[code][0],
                "w_homogeneous": hom[code],
            }
            if classes is not None:
                row["beta_class"] = classes[code]
            rows.append(row)
        payload["per_beta"] = rows
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    elif cfg.format == "csv":
        rows: list[tuple[str, str, str]] = []
        for w, count in sorted(table.hamming.items()):
            rows.append(("hamming", str(w), str(count)))
        for w, count in sorted(table.homogeneous.items()):
            rows.append(("homogeneous", str(w), str(count)))
        for key, value in sorted(table.complete.items()):
            rows.append(("complete", "|".join(map(str, key)), str(value)))
        rows.append(("summary", "n", str(table.n)))
        rows.append(("summary", "size", str(table.size)))
        rows.append(("summary", "min_hamming", str(table.min_hamming)))
        rows.append(("summary", "min_homogeneous", str(table.min_homogeneous)))
        _emit(cfg, _kv_csv(rows))
    else:
        lines = [
            f"length n = {table.n}, |C| = {table.size}, "
            f"d_H = {table.min_hamming}, d_hom = {table.min_homogeneous}",
            "Hamming weights: "
            + "  ".join(f"A_{w}={c}" for w, c in sorted(table.hamming.items())),
            "homogeneous weights: "
            + "  ".join(f"{w}:{c}" for w, c in sorted(table.homogeneous.items())),
        ]
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_code_verify(cfg: RunConfig) -> int:
    from .verify import SUITES

    if cfg.theorem not in SUITES:
        raise GRCodesError(
            f"--theorem must be one of {', '.join(sorted(SUITES))}, got {cfg.theorem!r}"
        )
    _, suite = SUITES[cfg.theorem]
    target = _build_ring(cfg) if cfg.theorem == "2.1" else _build_context(cfg)
    report: VerificationReport = suite(target, full=cfg.full)
    if cfg.format == "json":
        _emit(cfg, report.to_json())
    elif cfg.format == "csv":
        _emit(cfg, report.to_csv())
    else:
        _emit(cfg, report.to_text())
    return 0 if report.all_ok else 1


# ---------------------------------------------------------------------------
# gray map / analyze
# ---------------------------------------------------------------------------

def cmd_gray_map(cfg: RunConfig) -> int:
    from .gray import field_enumeration, gray_map_vec
    from .rings import format_element, format_field_element, parse_element
    from .verify import json_text

    ring = _build_ring(cfg)
    # a single element literal, or a whole codeword as ';'-joined symbols
    symbols = [parse_element(ring, part) for part in cfg.beta.split(";")]
    image = gray_map_vec(symbols)
    field = ring.residue_field
    payload = {
        "beta": ";".join(format_element(s) for s in symbols),
        "field_order": [format_field_element(field, a) for a in field_enumeration(ring)],
        "image": [format_field_element(field, a) for a in image],
    }
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    else:
        _emit(cfg, " ".join(payload["image"]) + "\n")
    return 0


def cmd_gray_analyze(cfg: RunConfig) -> int:
    from .gray import gray_image_analyze
    from .verify import json_text

    ctx = _build_context(cfg)
    report = gray_image_analyze(ctx, cfg.which)
    payload = {
        "modulus": list(ctx.big.modulus),
        "which": report.which,
        "length": report.length,
        "size": report.size,
        "weights": {str(k): v for k, v in sorted(report.weights.items())},
        "distances": {str(k): v for k, v in sorted(report.distances.items())},
        "min_distance": report.min_distance,
        "two_distance": report.two_distance,
    }
    if cfg.format == "json":
        _emit(cfg, json_text(payload) + "\n")
    else:
        _emit(
            cfg,
            f"gray image of {report.which}: length {report.length}, size {report.size}, "
            f"min distance {report.min_distance}, two-distance: {report.two_distance}\n",
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, code_opts: bool = False) -> None:
    parser.add_argument("--p", type=int, help="prime p")
    parser.add_argument("--r", type=int, help="degree of the base ring")
    parser.add_argument("--modulus", help="modulus coefficients, little-endian mod p^2")
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--format", choices=("text", "json", "csv"), default=None)
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility (1..64); has no effect")
    parser.add_argument("--allow-large", dest="allow_large", action="store_const",
                        const=True, default=None, help="override the desk-scale guard")
    parser.add_argument("--full", action="store_const", const=True, default=None,
                        help="emit per-element detail records")
    if code_opts:
        parser.add_argument("--s", type=int, help="extension degree ratio")
        parser.add_argument("--sprime", type=int, help="s' with s = p*s'")
        parser.add_argument("--e", type=int, help="divisor of Q-1 fixing the Teichmuller part")
        parser.add_argument("--d", type=int, help="dimension of Vbar (canonical basis)")
        parser.add_argument("--vbar", help="'full', 'zero', or ';'-joined field literals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grcodes",
        description="Exact Galois-ring arithmetic, Gauss sums, trace codes and Gray maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring construction and inspection")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    info = ring_sub.add_parser("info", help="modulus, sizes, Teichmuller table")
    _add_common(info)
    info.set_defaults(handler=cmd_ring_info)

    gauss = sub.add_parser("gauss", help="Gauss sums, both computation routes")
    _add_common(gauss)
    gauss.add_argument("--chi-i", dest="chi_i", type=int, default=None,
                       help="multiplicative index i of omega^i")
    gauss.add_argument("--chi-b", dest="chi_b", default=None,
                       help="Teichmuller element b of phi_b, as an element literal")
    gauss.add_argument("--beta", default=None, help="additive index beta, element literal")
    gauss.add_argument("--sweep", action="store_const", const=True, default=None,
                       help="check every (chi, lambda) pair")
    gauss.add_argument("--dump-sums", dest="dump_sums", action="store_const",
                       const=True, default=None,
                       help="include canonical cyclotomic coefficient vectors")
    gauss.set_defaults(handler=cmd_gauss)

    code = sub.add_parser("code", help="trace codes from unit subgroups")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    for name, handler in (
        ("build", cmd_code_build),
        ("weights", cmd_code_weights),
        ("verify", cmd_code_verify),
    ):
        p = code_sub.add_parser(name)
        _add_common(p, code_opts=True)
        if name == "verify":
            p.add_argument("--theorem", choices=THEOREMS, default=None,
                           help="which identity suite to run")
        p.set_defaults(handler=handler)

    gray = sub.add_parser("gray", help="homogeneous weight and Gray images")
    gray_sub = gray.add_subparsers(dest="subcommand", required=True)
    gmap = gray_sub.add_parser("map", help="Gray image of one element")
    _add_common(gmap)
    gmap.add_argument("--beta", default=None, help="element literal to map")
    gmap.set_defaults(handler=cmd_gray_map)
    ganalyze = gray_sub.add_parser("analyze", help="weights and distances of a Gray image")
    _add_common(ganalyze, code_opts=True)
    ganalyze.add_argument("--which", choices=("C", "Ctilde"), default=None)
    ganalyze.set_defaults(handler=cmd_gray_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        if not 1 <= cfg.threads <= 64:
            raise GRCodesError("--threads must be between 1 and 64")
        started = time.monotonic()
        status = args.handler(cfg)
        print(f"elapsed: {time.monotonic() - started:.6f}s", file=sys.stderr)
        return status
    except (GRCodesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
