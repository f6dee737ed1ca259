"""Ring kernel timings on a seeded sample of the workload's largest ring.

Each kernel runs over distinct sample elements on a freshly built ring, so
the Teichmuller memo starts empty and the figure is the cost of the
arithmetic itself; how often the workloads hit that memo is reported by
the traced run as ``rings.teich_cache_hit_ratio``.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from grcodes.rings import GaloisRing, RingTower

SAMPLE = 400
REPEATS = 5


# metric -> the sample it runs over
INPUTS = {
    "rings.mul_ns": "pairs",
    "rings.inverse_ns": "units",
    "rings.unit_decompose_ns": "units",
    "rings.frobenius_ns": "elements",
    "rings.tower_trace_ns": "elements",
}


def _kernel(name: str, ring: GaloisRing, tower: RingTower):
    return {
        "rings.mul_ns": lambda ab: ab[0] * ab[1],
        "rings.inverse_ns": ring.inverse,
        "rings.unit_decompose_ns": ring.unit_decompose,
        "rings.frobenius_ns": lambda a: ring.frobenius(a, ring.p),
        "rings.tower_trace_ns": tower.trace,
    }[name]


def kernel_timings(spec: dict, seed: int) -> dict[str, float]:
    """Median nanoseconds per call of each kernel, over REPEATS fresh rings.

    ``spec`` names the ring: p, degree, modulus, and the degree of the
    subring that the tower trace maps onto.
    """
    rng = random.Random(f"kernels:{seed}")
    probe = GaloisRing(spec["p"], spec["degree"], tuple(spec["modulus"]))
    size = probe.q * probe.q
    codes = rng.sample(range(size), min(SAMPLE, size))
    partners = [rng.randrange(size) for _ in codes]
    unit_codes = [c for c in rng.sample(range(size), size) if probe.from_code(c).is_unit][:SAMPLE]
    samples: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        for name, kind in INPUTS.items():
            ring = GaloisRing(spec["p"], spec["degree"], tuple(spec["modulus"]))
            kernel = _kernel(name, ring, RingTower(ring, spec["small_degree"]))
            inputs = {
                "pairs": lambda: [(ring.from_code(a), ring.from_code(b))
                                  for a, b in zip(codes, partners)],
                "units": lambda: [ring.from_code(c) for c in unit_codes],
                "elements": lambda: [ring.from_code(c) for c in codes],
            }[kind]()
            start = perf_counter_ns()
            for x in inputs:
                kernel(x)
            samples.setdefault(name, []).append((perf_counter_ns() - start) / len(inputs))
    return {name: statistics.median(values) for name, values in samples.items()}
