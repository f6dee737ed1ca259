"""Correctness checks on one job's report, and the committed report digests.

A job fails when it exits nonzero, times out, carries a FAIL record, breaks
one of the paper's invariants (code size Q^2, n = (Q-1)/e * p^d, the
two-distance property of Gray images on hypothesis instances), or prints a
report whose SHA-256 differs from the digest recorded for the same argv.
digests.json holds every argv any seed can draw, so an argv without a
recorded digest is a failure too.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_errors(argv: list[str], report: bytes, digests: dict[str, str]) -> list[str]:
    expected = digests.get(digest_key(argv))
    if expected is None:
        return ["no recorded digest for this argv"]
    actual = sha256(report)
    return [] if actual == expected else [f"report digest {actual[:16]} != recorded {expected[:16]}"]


def _verify_errors(payload: dict) -> list[str]:
    bad = [r["check"] for r in payload["records"] if r["verdict"] != "pass"]
    errors = [f"FAIL record {name}" for name in bad[:5]]
    if payload["summary"]["failed"] != 0 and not errors:
        errors.append(f"summary counts {payload['summary']['failed']} failures")
    if not payload["records"]:
        errors.append("report has no records")
    return errors


def _sweep_errors(payload: dict) -> list[str]:
    errors = []
    if payload["all_equal"] is not True:
        errors.append("closed form and definition differ")
    if payload["pairs"] != payload["pairs_expected"] or len(payload["records"]) != payload["pairs"]:
        errors.append(f"{payload['pairs']} pairs, expected {payload['pairs_expected']}")
    return errors


def _size_errors(size: int, hamming_total: int, params: dict) -> list[str]:
    Q2 = params["Q"] ** 2
    errors = []
    if size != Q2:
        errors.append(f"code size {size} != Q^2 = {Q2}")
    if hamming_total != Q2:
        errors.append(f"weight distribution sums to {hamming_total}, not Q^2 = {Q2}")
    return errors


def _build_errors(payload: dict, params: dict) -> list[str]:
    errors = []
    if payload["n"] != params["n"]:
        errors.append(f"n = {payload['n']}, expected (Q-1)/e * p^d = {params['n']}")
    if payload["n_tilde"] * payload["stabilizer_size"] != payload["n"]:
        errors.append("tilde length times stabilizer size != n")
    return errors


def _weights_csv_errors(text: str, params: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    summary = {key: int(value) for table, key, value in rows if table == "summary"}
    hamming = sum(int(value) for table, _, value in rows if table == "hamming")
    errors = _size_errors(summary["size"], hamming, params)
    if summary["n"] != params["n"]:
        errors.append(f"n = {summary['n']}, expected {params['n']}")
    return errors


def _weights_json_errors(payload: dict, params: dict) -> list[str]:
    errors = _size_errors(payload["size"], sum(payload["hamming"].values()), params)
    if len(payload["per_beta"]) != params["Q"] ** 2:
        errors.append(f"{len(payload['per_beta'])} per-beta rows, expected Q^2")
    return errors


def _gray_errors(payload: dict, params: dict) -> list[str]:
    errors = []
    if payload["size"] != params["Q"] ** 2:
        errors.append(f"Gray image has {payload['size']} words, expected Q^2")
    if payload["two_distance"] is not True:
        errors.append(f"Gray image is not two-distance: {sorted(payload['distances'])}")
    if payload["which"] == "C" and payload["length"] != params["n"] * params["q"]:
        errors.append(f"Gray image length {payload['length']} != n*q")
    return errors


def report_errors(kind: str, report: bytes, params: dict) -> list[str]:
    """Invariant violations in one report; an unreadable report is one error."""
    try:
        text = report.decode("utf-8")
        if kind == "weights-csv":
            return _weights_csv_errors(text, params)
        payload = json.loads(text)
        if kind == "verify":
            return _verify_errors(payload)
        if kind == "sweep":
            return _sweep_errors(payload)
        if kind == "build":
            return _build_errors(payload, params)
        if kind == "weights-full":
            return _weights_json_errors(payload, params)
        if kind == "gray":
            return _gray_errors(payload, params)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown job kind {kind!r}")
