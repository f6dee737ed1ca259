"""Additive and multiplicative characters of GR(p^2, r), and their Gauss sums.

Additive characters are indexed by a ring element beta:
    lambda_beta(x) = zeta_{p^2} ^ Tr(beta * x)
Multiplicative characters are indexed by (i, b) with 0 <= i < q-1 and b a
Teichmuller element:
    chi(x) = zeta_{q-1}^(i*k) * zeta_p^tr(b_bar * v_bar)   for x = xi^k (1 + p v).

Gauss sums G(chi, lambda) = sum over units of chi(x) lambda(x) are computed
two independent ways: literally by enumeration, and through the closed-form
case table that reduces every nontrivial value to a finite-field Gauss sum.
Cross-validating the two routes on whole rings is one of the package's main
correctness checks.  ``gauss_sum_rows`` runs both routes for one chi and
every beta at once and returns rows, not values: each route's canonical
forms modulo Phi_m, and the definitional group-algebra rows.  The scalar
methods stay as the per-pair oracles.
"""
from __future__ import annotations

import math

import numpy as np

from .cyclotomic import CyclotomicInteger, reduced_rows
from .errors import InvalidSubgroupError, NotAUnitError
from .rings import FiniteField, GaloisRing, GaloisRingElement, linear_span


def gauss_sum_field(field: FiniteField, i: int, m: int) -> CyclotomicInteger:
    """Gauss sum over F_q of the character sending the generator to zeta_{q-1}^i.

    G_q(omega^i) = sum over x in F_q^* of omega^i(x) * zeta_p^tr(x).
    """
    q, p = field.q, field.p
    if m % p or (q > 2 and m % (q - 1)):
        raise ValueError(f"root order {m} does not hold zeta_{p} and zeta_{q - 1}")
    scale_t = m // (q - 1) if q > 2 else 0
    scale_p = m // p
    counts = [0] * m
    for x in field.units():
        counts[(i * field.log[x] * scale_t + field.trace_to_prime(x) * scale_p) % m] += 1
    return CyclotomicInteger(m, counts)


class CharacterSystem:
    """Character evaluation and Gauss sums for one ring, at a fixed root order m.

    m defaults to lcm(p^2, q-1), the smallest order holding every root of
    unity the characters produce.  A larger multiple may be supplied so that
    several rings in a tower share one cyclotomic context.
    """

    def __init__(self, ring: GaloisRing, m: int | None = None):
        self.ring = ring
        q, p = ring.q, ring.p
        default = math.lcm(p * p, q - 1 if q > 2 else 1)
        self.m = default if m is None else m
        if self.m % (p * p) or (q > 2 and self.m % (q - 1)):
            raise ValueError(f"root order {self.m} is incompatible with {ring!r}")
        self._scale_p2 = self.m // (p * p)
        self._scale_p = self.m // p
        self._scale_t = self.m // (q - 1) if q > 2 else 0
        self._unit_data: list[GaloisRingElement] | None = None
        self._gq_cache: dict[int, CyclotomicInteger] = {}
        self._add_rows: dict[tuple[int, ...], list[int]] = {}
        self._mult_rows: dict[tuple, list[int]] = {}
        self._add_block: np.ndarray | None = None

    # -- character ids ------------------------------------------------------

    def trivial_mult(self) -> tuple[int, GaloisRingElement]:
        return (0, self.ring.zero)

    def mult_char_is_trivial(self, chi: tuple[int, GaloisRingElement]) -> bool:
        i, b = chi
        order = self.ring.q - 1
        return (order <= 1 or i % order == 0) and b.is_zero()

    def all_mult_chars(self):
        order = max(self.ring.q - 1, 1)
        for i in range(order):
            for b in self.ring.teichmuller_set():
                yield (i, b)

    # -- exponent helpers (exact integers, no cyclotomic objects) ------------

    def additive_exponent(self, beta: GaloisRingElement, x: GaloisRingElement) -> int:
        return (self.ring.trace_to_prime(beta * x) * self._scale_p2) % self.m

    def mult_exponent(self, chi: tuple[int, GaloisRingElement], x: GaloisRingElement) -> int:
        i, b = chi
        ring = self.ring
        if not x.is_unit:
            raise NotAUnitError(f"{x!r} is not a unit")
        k, v_bar = ring.unit_log(x)
        e = (i * k % (ring.q - 1)) * self._scale_t if ring.q > 2 else 0
        field = ring.residue_field
        e += field.trace_to_prime(field.mul(ring.reduce_mod_p(b), v_bar)) * self._scale_p
        return e % self.m

    # -- character evaluation -------------------------------------------------

    def eval_mult_conj(self, chi, x) -> CyclotomicInteger:
        return CyclotomicInteger.zeta(self.m, -self.mult_exponent(chi, x))

    # -- Gauss sums, definitional route ----------------------------------------

    def _units(self):
        if self._unit_data is None:
            self._unit_data = list(self.ring.units())
        return self._unit_data

    def _additive_row(self, beta: GaloisRingElement) -> list[int]:
        # exponent of lambda_beta at each unit, in definition order
        row = self._add_rows.get(beta.coeffs)
        if row is None:
            row = [self.additive_exponent(beta, x) for x in self._units()]
            self._add_rows[beta.coeffs] = row
        return row

    def _mult_row(self, chi: tuple[int, GaloisRingElement]) -> list[int]:
        # cyclic[k] + additive[v_bar] at each unit xi^k (1 + p T(v_bar)), in definition order
        ring = self.ring
        order = max(ring.q - 1, 1)
        key = (chi[0] % order, chi[1].coeffs)
        row = self._mult_rows.get(key)
        if row is None:
            cyclic = key[0] * np.arange(order) % order * self._scale_t
            additive = ring.residue_field.trace_row(ring.reduce_mod_p(chi[1])) * self._scale_p
            logs_k, logs_v = ring.log_table()
            units = logs_v >= 0
            row = ((cyclic[logs_k[units]] + additive[logs_v[units]]) % self.m).tolist()
            self._mult_rows[key] = row
        return row

    def gauss_sum_definition(
        self, chi: tuple[int, GaloisRingElement], beta: GaloisRingElement
    ) -> CyclotomicInteger:
        """G(chi, lambda_beta) summed literally over all q(q-1) units."""
        m = self.m
        counts = [0] * m
        for em, ea in zip(self._mult_row(chi), self._additive_row(beta)):
            counts[(em + ea) % m] += 1
        return CyclotomicInteger(m, counts)

    def _additive_block(self) -> np.ndarray:
        """Exponent of lambda_beta at every unit x: a (q^2, q(q-1)) array, both in code order.

        Tr(beta x) is Z_{p^2}-linear in each factor.  The span of the r^2
        scalar traces Tr(xi^i xi^j) gives Tr(x xi^j) for every x; the span of
        its unit rows, transposed, gives Tr(beta x) for every beta.
        """
        if self._add_block is None:
            ring = self.ring
            basis = ring.xi_powers[:ring.r]
            seed = np.array([[ring.trace_to_prime(a * b) for b in basis] for a in basis])
            at_basis = linear_span(seed, ring.p2)[ring.log_table()[1] >= 0]  # Tr(x xi^j), x a unit
            traces = linear_span(at_basis.T, ring.p2).astype(np.min_scalar_type(self.m - 1))
            self._add_block = traces * self._scale_p2
        return self._add_block

    # -- Gauss sums, closed-form route -----------------------------------------

    def gauss_sum_field_induced(self, i: int) -> CyclotomicInteger:
        """Gauss sum on the residue field of the character induced by omega^i."""
        key = i % (self.ring.q - 1) if self.ring.q > 2 else 0
        if key not in self._gq_cache:
            self._gq_cache[key] = gauss_sum_field(self.ring.residue_field, key, self.m)
        return self._gq_cache[key]

    def gauss_sum_principal(self, chi: tuple[int, GaloisRingElement]) -> CyclotomicInteger:
        """G(chi) = G(chi, lambda_1) in closed form.

        Zero when chi is trivial on 1 + pT; otherwise q * omega^i(b') *
        zeta_{p^2}^Tr(b'), where b' = b for p = 2 and b' = -b for odd p.
        """
        i, b = chi
        ring = self.ring
        if self.mult_char_is_trivial(chi):
            return CyclotomicInteger.zero(self.m)
        if b.is_zero():
            return CyclotomicInteger.zero(self.m)
        b_prime = b if ring.p == 2 else -b
        k = ring.teichmuller_log[b_prime.coeffs]
        e = 0
        if ring.q > 2:
            e += (i * k % (ring.q - 1)) * self._scale_t
        e += ring.trace_to_prime(b_prime) * self._scale_p2
        return ring.q * CyclotomicInteger.zeta(self.m, e)

    def gauss_sum_lambda_p(self, chi: tuple[int, GaloisRingElement]) -> CyclotomicInteger:
        """G(chi, lambda_p) in closed form: q * G_q(omega^i) or zero."""
        i, b = chi
        if self.mult_char_is_trivial(chi):
            return CyclotomicInteger.zero(self.m)
        if b.is_zero():
            return self.ring.q * self.gauss_sum_field_induced(i)
        return CyclotomicInteger.zero(self.m)

    def gauss_sum_closed_form(
        self, chi: tuple[int, GaloisRingElement], beta: GaloisRingElement
    ) -> CyclotomicInteger:
        """Full case dispatch for G(chi, lambda_beta); must agree with the definition."""
        ring = self.ring
        q = ring.q
        if self.mult_char_is_trivial(chi):
            if beta.is_zero():
                return CyclotomicInteger.from_int(self.m, q * (q - 1))
            if beta.is_unit:
                return CyclotomicInteger.zero(self.m)
            return CyclotomicInteger.from_int(self.m, -q)
        if beta.is_zero():
            return CyclotomicInteger.zero(self.m)
        if beta.is_unit:
            twist = self.eval_mult_conj(chi, beta)
            return twist * self.gauss_sum_principal(chi)
        # beta = p*y with y = xi^k in T*: twist by conj(chi(y)) and reduce to lambda_p
        y = ring.xi_powers[ring.log_table()[0][beta.code]]
        twist = self.eval_mult_conj(chi, y)
        return twist * self.gauss_sum_lambda_p(chi)

    # -- Gauss sums for every beta, one chi at a time ----------------------------

    def gauss_sum_rows(
        self, chi: tuple[int, GaloisRingElement]
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], np.ndarray]:
        """The closed-form and the definitional G(chi, lambda_beta) for every beta, as rows.

        Returns the canonical forms modulo Phi_m of the closed forms and of
        the definitional sums, as tuples, and the definitional sums as an
        int64 (q^2, m) array of group-algebra rows; all follow
        ``ring.elements()`` order.  Each route is reduced by one
        ``reduced_rows`` call, so two values are equal exactly when their
        tuples are.  The definitional sums are one offset bincount over the
        exponents of chi * lambda_beta at every unit; the closed forms follow
        the case table of ``gauss_sum_closed_form``, twisting the base value
        by a cyclic shift, with no enumeration of units.
        """
        ring, m = self.ring, self.m
        q = ring.q
        size = q * q
        mult_row = self._mult_row(chi)
        exps = (np.array(mult_row) + self._additive_block()) % m
        exps += np.arange(0, size * m, m)[:, None]
        definition = np.bincount(exps.ravel(), minlength=size * m).reshape(size, m)

        closed = np.zeros((size, m), dtype=np.int64)
        k, v = ring.log_table()
        units = v >= 0
        ideal = (k >= 0) & ~units  # beta = p xi^k
        if self.mult_char_is_trivial(chi):
            closed[0, 0] = q * (q - 1)
            closed[ideal, 0] = -q
        else:
            at_unit = np.zeros(size, dtype=np.int64)
            at_unit[units] = mult_row
            teich = units & (v == 0)  # v = 0 is xi^k itself
            at_xi = np.zeros(max(q - 1, 1), dtype=np.int64)
            at_xi[k[teich]] = at_unit[teich]
            # conj(chi(beta)) * G shifts G's coefficients down by chi's exponent
            cols = np.arange(m)
            principal = np.array(self.gauss_sum_principal(chi).coeffs, dtype=np.int64)
            closed[units] = principal[(cols + at_unit[units][:, None]) % m]
            lambda_p = np.array(self.gauss_sum_lambda_p(chi).coeffs, dtype=np.int64)
            closed[ideal] = lambda_p[(cols + at_xi[k[ideal]][:, None]) % m]
        return reduced_rows(closed, m), reduced_rows(definition, m), definition


# ---------------------------------------------------------------------------
# characters of quotient groups
# ---------------------------------------------------------------------------

def field_quotient_characters(field_order: int, e: int) -> list[int]:
    """Indices of characters of a cyclic group of size field_order - 1 that are
    trivial on the subgroup generated by the e-th power of the generator."""
    n = field_order - 1
    if n == 0 or n % e:
        raise InvalidSubgroupError(f"{e} does not divide {field_order} - 1")
    step = n // e
    return [j * step for j in range(e)]


def ring_quotient_characters(
    system: CharacterSystem,
    generators: list[GaloisRingElement],
    subgroup_size: int,
) -> list[tuple[int, GaloisRingElement]]:
    """Characters of the unit group trivial on the subgroup the generators span.

    (i, b) sends g = xi^k (1 + p T(v_bar)) to zeta_{q-1}^(i k) zeta_p^tr(b_bar v_bar),
    and gcd(p, q - 1) = 1, so it is trivial on g exactly when both factors are 1:
    the i and the b are found by two separate scans.  The list is ordered by i,
    then by ``teichmuller_set()`` (zero first, then by xi-exponent); its size is
    verified against the index of the subgroup.
    """
    ring = system.ring
    for g in generators:
        if not g.is_unit:
            raise NotAUnitError(f"{g!r} is not a unit")
    logs = [ring.unit_log(g) for g in generators]
    order = max(ring.q - 1, 1)
    i_part = [i for i in range(order) if all(i * k % order == 0 for k, _ in logs)]
    traces = [ring.residue_field.trace_row(v_bar) for _, v_bar in logs]  # read at b_bar
    b_part = [
        b for b in ring.teichmuller_set()
        if not any(row[ring.reduce_mod_p(b)] for row in traces)
    ]
    chars = [(i, b) for i in i_part for b in b_part]
    ambient = ring.q * (ring.q - 1)
    if len(chars) * subgroup_size != ambient:
        raise InvalidSubgroupError(
            f"quotient character count {len(chars)} x subgroup size {subgroup_size} "
            f"!= unit group order {ambient}; generators do not span the subgroup"
        )
    return chars
