"""Seeded CLI jobs for the three benchmark workloads.

A seed draws each instance's inputs: the extension-ring ``--modulus`` (a
Hensel lift of a primitive polynomial, chosen among all of them) and a
``--vbar`` of the stated dimension.  The parameters (p, r, s, e, d) are
fixed per workload, so a new seed changes the values and keeps the amount
of work.  Only public ``grcodes.rings`` / ``grcodes.codes`` callables are
used, and every instance of the ``enumeration`` workload is checked
against the closed-form hypotheses before it becomes a job.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from grcodes.codes import dual_subspace, echelon_basis
from grcodes.rings import FiniteField, hensel_lift_basic_primitive, is_primitive_poly

WORKLOADS = ("formula", "enumeration", "gauss")

# (p, r, s, e, d) and the theorem suites run on that code.  Each job
# evaluates Q^2 q^2 (3.1) or Q^2 (4.4) exact character-sum formulas on a
# small code (n <= 39), so ring, character and cyclotomic arithmetic
# dominate; --threads 2 keeps the thread pool in the measurement.
FORMULA_CODES = (
    ((2, 2, 2, 3, 1), ("3.1", "4.4")),
    ((3, 2, 1, 2, 1), ("3.1", "4.4")),
    ((2, 1, 4, 5, 2), ("3.1", "4.4")),
    ((5, 1, 2, 4, 1), ("4.4",)),
    ((3, 1, 3, 2, 1), ("4.4",)),
)
FORMULA_THREADS = 2

# (p, r, s, sprime, e, d) and the commands run on that code.  The n = 504
# code pays an O(n^2) closure check on every build; its 4.6 suite and
# `gray analyze --which C` (about 72 s each) are left out.
ENUMERATION_CODES = (
    ((2, 3, 2, 1, 1, 3), ("build", "weights-csv", "3.3", "3.4", "4.5", "gray-Ctilde")),
    ((3, 1, 3, 1, 2, 2), ("build", "weights-csv", "weights-full", "3.4", "4.5", "4.6",
                          "gray-C", "gray-Ctilde")),
)

# (p, r) and the commands run on GR(p^2, r); no code is built.
GAUSS_RINGS = (
    ((2, 3), ("2.1", "sweep")),
    ((3, 2), ("2.1",)),
    ((7, 1), ("2.1", "sweep")),
)


@dataclass
class Job:
    """One CLI invocation: ``python -m grcodes.cli *argv``."""

    name: str
    kind: str  # verify | sweep | build | weights-csv | weights-full | gray
    argv: list[str]
    params: dict = field(default_factory=dict)


def primitive_polys(p: int, degree: int) -> list[tuple[int, ...]]:
    """Every monic primitive polynomial of the degree over F_p, in lexicographic order."""
    out = []
    for tail in itertools.product(range(p), repeat=degree):
        g = tail + (1,)
        if tail[0] and is_primitive_poly(g, p):
            out.append(g)
    return out


def draw_modulus(rng: random.Random, p: int, degree: int) -> tuple[int, ...]:
    """A basic primitive modulus of GR(p^2, degree), drawn among all Hensel lifts."""
    return hensel_lift_basic_primitive(rng.choice(primitive_polys(p, degree)), p)


def residue_field(p: int, modulus) -> FiniteField:
    return FiniteField(p, len(modulus) - 1, tuple(c % p for c in modulus))


def draw_subspace(rng: random.Random, field_: FiniteField, d: int, start=()) -> list[int]:
    """Echelon basis of a random d-dimensional F_p-subspace containing ``start``."""
    basis = echelon_basis(field_, list(start))
    if len(basis) > d:
        raise ValueError(f"forced part has dimension {len(basis)} > d={d}")
    while len(basis) < d:
        basis = echelon_basis(field_, basis + [rng.randrange(1, field_.q)])
    return basis


def forced_subspace(field_: FiniteField, q: int, sprime: int) -> list[int]:
    """The annihilator of the order-q^s' subfield, which every hypothesis Vbar contains."""
    order = q**sprime
    subfield = [x for x in field_.units() if field_.pow(x, order) == x]
    return dual_subspace(field_, echelon_basis(field_, subfield))


def hypothesis_failures(p, r, s, sprime, e, d, modulus, vbar, need_e_one=False) -> list[str]:
    """The closed-form hypotheses of Theorems 3.3-4.6 that the instance violates."""
    out = []
    field_ = residue_field(p, modulus)
    Q, q = p ** (r * s), p**r
    if s != p * sprime:
        out.append(f"s={s} != p*s'={p * sprime}")
    if need_e_one and e != 1:
        out.append(f"e={e} != 1")
    if math.gcd(e, (Q - 1) // (q - 1)) != 1:
        out.append("gcd(e, (Q-1)/(q-1)) != 1")
    if len(echelon_basis(field_, vbar)) != d:
        out.append(f"Vbar does not have dimension {d}")
    if not r * s >= d >= r * (p - 1) * sprime:
        out.append(f"rs >= d >= r(p-1)s' fails for d={d}")
    Qp = q**sprime
    if any(field_.pow(x, Qp) != x for x in dual_subspace(field_, vbar)):
        out.append(f"Vbar-perp is not inside the order-{Qp} subfield")
    return out


def _lit(values) -> str:
    return ",".join(str(v) for v in values)


def _vbar_lit(field_: FiniteField, basis) -> str:
    return ";".join(_lit(field_.coeffs(v)) for v in basis)


def _formula_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for (p, r, s, e, d), theorems in FORMULA_CODES:
        modulus = draw_modulus(rng, p, r * s)
        field_ = residue_field(p, modulus)
        vbar = draw_subspace(rng, field_, d)
        code = ["--p", str(p), "--r", str(r), "--s", str(s), "--e", str(e),
                "--modulus", _lit(modulus), "--vbar", _vbar_lit(field_, vbar)]
        params = {"p": p, "r": r, "s": s, "e": e, "d": d, "modulus": list(modulus),
                  "vbar": vbar, "Q": p ** (r * s), "n": (p ** (r * s) - 1) // e * p**d}
        for theorem in theorems:
            jobs.append(Job(
                f"{theorem}/p{p}r{r}s{s}e{e}d{d}", "verify",
                ["code", "verify", "--theorem", theorem, *code,
                 "--threads", str(FORMULA_THREADS), "--format", "json"],
                params,
            ))
    return jobs


_ENUM_COMMANDS = {
    "build": ("build", ["code", "build", "--format", "json"]),
    "weights-csv": ("weights-csv", ["code", "weights", "--format", "csv"]),
    "weights-full": ("weights-full", ["code", "weights", "--full", "--format", "json"]),
    "3.3": ("verify", ["code", "verify", "--theorem", "3.3", "--format", "json"]),
    "3.4": ("verify", ["code", "verify", "--theorem", "3.4", "--format", "json"]),
    "4.5": ("verify", ["code", "verify", "--theorem", "4.5", "--format", "json"]),
    "4.6": ("verify", ["code", "verify", "--theorem", "4.6", "--format", "json"]),
    "gray-C": ("gray", ["gray", "analyze", "--which", "C", "--format", "json"]),
    "gray-Ctilde": ("gray", ["gray", "analyze", "--which", "Ctilde", "--format", "json"]),
}


def _enumeration_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for (p, r, s, sprime, e, d), commands in ENUMERATION_CODES:
        modulus = draw_modulus(rng, p, r * s)
        field_ = residue_field(p, modulus)
        vbar = draw_subspace(rng, field_, d, forced_subspace(field_, p**r, sprime))
        failures = hypothesis_failures(
            p, r, s, sprime, e, d, modulus, vbar, need_e_one="3.3" in commands
        )
        if failures:
            raise ValueError(f"instance {(p, r, s, sprime, e, d)} fails: {failures}")
        code = ["--p", str(p), "--r", str(r), "--s", str(s), "--sprime", str(sprime),
                "--e", str(e), "--modulus", _lit(modulus), "--vbar", _vbar_lit(field_, vbar)]
        params = {"p": p, "r": r, "s": s, "sprime": sprime, "e": e, "d": d,
                  "modulus": list(modulus), "vbar": vbar, "Q": p ** (r * s), "q": p**r,
                  "n": (p ** (r * s) - 1) // e * p**d}
        for command in commands:
            kind, head = _ENUM_COMMANDS[command]
            jobs.append(Job(f"{command}/n{params['n']}", kind, head + code, params))
    return jobs


def _gauss_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for (p, r), commands in GAUSS_RINGS:
        modulus = draw_modulus(rng, p, r)
        ring = ["--p", str(p), "--r", str(r), "--modulus", _lit(modulus)]
        params = {"p": p, "r": r, "modulus": list(modulus), "q": p**r}
        for command in commands:
            if command == "2.1":
                jobs.append(Job(f"2.1/GR({p * p},{r})", "verify",
                                ["code", "verify", "--theorem", "2.1", *ring, "--format", "json"],
                                params))
            else:
                jobs.append(Job(f"sweep/GR({p * p},{r})", "sweep",
                                ["gauss", "--sweep", "--full", *ring, "--format", "json"],
                                params))
    return jobs


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same (workload, seed) always gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "formula":
        return _formula_jobs(rng)
    if workload == "enumeration":
        return _enumeration_jobs(rng)
    if workload == "gauss":
        return _gauss_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def largest_ring(jobs: list[Job]) -> dict:
    """Parameters of the largest ring the jobs build: p, degree, modulus, subring degree."""
    best = max(jobs, key=lambda job: job.params["p"] ** (len(job.params["modulus"]) - 1))
    params = best.params
    return {"p": params["p"], "degree": len(params["modulus"]) - 1,
            "modulus": params["modulus"], "small_degree": params["r"]}
