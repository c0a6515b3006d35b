"""Condition (M) and monomial section existence on the toric side.

A polytope satisfies condition (M) when every boundary divisor ray carries
a monomial of ample degree vanishing on it.  The default mode restricts to
reduced (square-free) monomials, which is the form the degeneration
arguments actually consume; the unrestricted mode allows arbitrary
exponents and reads its witnesses off the polytope's own lattice points.
Every witness scan is one polytope.integer_points scan under its node budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError, InvalidParameterError
from .intlinalg import dot
from .polytope import LatticePolytope, _as_int_tuple, _instance, _int_in, integer_points
from .toric import (
    DivisorClassGroup,
    class_group,
    divisor_polytope,
    facet_shift,
    normal_fan,
)

@dataclass(frozen=True)
class ConditionMReport:
    holds: bool
    mode: str  # "reduced" | "unrestricted"
    witnesses: tuple  # per ray: exponent tuple over rays, or None
    group: DivisorClassGroup


def _ample_exponents(group: DivisorClassGroup, lo, hi, budget, routine):
    """Exponent vectors lo <= x <= hi over the rays of ample degree, in lexicographic order.

    One integer point scan: each coordinate of the free part of the degree
    is an equality, two opposite halfspaces; the torsion part filters the
    points the scan yields; `budget` caps it as in integer_points.
    """
    target = group.ample_class()
    free = [group.ray_degree(i).free for i in range(group.fan.n_rays)]
    cons = []
    for j, t in enumerate(target.free):
        row = tuple(f[j] for f in free)
        cons += [(row, t), (tuple(-a for a in row), -t)]
    for x in integer_points(cons, lo, hi, budget, routine):
        if group.degree(x).torsion == target.torsion:
            yield x


def reduced_witnesses(group: DivisorClassGroup, budget=None):
    """All square-free exponent vectors of ample degree, sorted; budget caps the scan."""
    n = _instance(group, DivisorClassGroup, "a divisor class group").fan.n_rays
    return list(_ample_exponents(group, [0] * n, [1] * n, budget, "reduced_witnesses"))


def _check_witness(group: DivisorClassGroup, i, w):
    """Raise unless w is a monomial (exponents >= 0) of ample degree vanishing on ray i."""
    if any(x < 0 for x in w) or w[i] < 1 or group.degree(w) != group.ample_class():
        raise InternalConsistencyError(
            f"ray {i}: witness {w} is not an ample section vanishing on it"
        )


def check_condition_m(p: LatticePolytope, mode: str = "reduced", budget=None) -> ConditionMReport:
    """Per ray, find a monomial of ample degree whose zero set contains the ray's divisor.

    Reduced mode enumerates square-free exponent vectors exactly, so absence
    is certified.  In unrestricted mode a witness for ray i is a lattice
    point of the polytope off facet i, the first one in p's lattice-point
    table: the lattice points of the shifted divisor polytope are exactly
    those.  `budget` caps the scan of either mode: the reduced scan, as in
    reduced_witnesses, or the scan that fills the lattice-point table, as in
    lattice_points; None is polytope.DEFAULT_POINT_BUDGET in both.
    """
    if mode not in ("reduced", "unrestricted"):
        raise InvalidParameterError(f"unknown mode {mode!r}; choose 'reduced' or 'unrestricted'")
    if budget is not None:  # both modes
        _int_in(budget, "check_condition_m: budget", 0, error=InvalidParameterError)
    group = class_group(p)
    fan = group.fan
    n = fan.n_rays
    if mode == "reduced":
        pool = reduced_witnesses(group, budget=budget)
        witnesses = [next((w for w in pool if w[i] >= 1), None) for i in range(n)]
    else:
        table = p._carriers(budget)  # bit i of a carrier is set on facet i, ray i's divisor
        ample = fan.ample_coefficients()
        exponents = lambda x: tuple(dot(x, u) + a for u, a in zip(fan.rays, ample))
        witnesses = [
            next((exponents(x) for x, c in table.items() if not c >> i & 1), None) for i in range(n)
        ]
    report = ConditionMReport(
        holds=all(w is not None for w in witnesses),
        mode=mode,
        witnesses=tuple(witnesses),
        group=group,
    )
    for i, w in enumerate(report.witnesses):
        if w is not None:
            _check_witness(group, i, w)
    return report


def sections_of_class(p: LatticePolytope, coefficients):
    """Torus-invariant sections of the divisor: lattice points of P_D with exponents.

    Returns a sorted list of (lattice point, exponent vector over rays); the
    exponent vector of m is (<m, u_ray> + a_ray)_ray.
    """
    fan = normal_fan(p)
    coefficients = _as_int_tuple(coefficients, fan.n_rays, "divisor coefficient vector")
    pd = divisor_polytope(fan, coefficients)
    out = []
    for m in pd.lattice_points():
        w = tuple(dot(m, u) + a for u, a in zip(fan.rays, coefficients))
        out.append((m, w))
    return sorted(out)


@dataclass(frozen=True)
class CrossCheckResult:
    exists_by_exponents: bool
    exists_by_polytope: bool

    @property
    def agree(self):
        return self.exists_by_exponents == self.exists_by_polytope


def cross_check_unrestricted(p: LatticePolytope, ray_index: int) -> CrossCheckResult:
    """Two routes to 'an unrestricted witness exists for this ray' must agree.

    Route one scans exponent vectors directly, capped by the width of the
    polytope along each ray (any section's exponent lies in that range), up
    to the first one that vanishes on the ray, within the default node budget,
    and checks that hit as `check_condition_m` checks its witnesses; route
    two tests the shifted divisor polytope for a lattice point.

    On a full-dimensional lattice polytope both routes always answer True,
    as unrestricted condition (M) always holds there: a vertex v off facet
    i has <u_i, v> >= c_i + 1, so the shifted divisor polytope contains it.
    The check is that route one's hit is a real witness and that both
    routes agree.
    """
    fan = normal_fan(p)
    _int_in(ray_index, "ray index", 0, fan.n_rays - 1)
    group = class_group(p)
    caps = [max(dot(v, u) for v in p.vertices) - c for u, c in zip(fan.rays, fan.offsets)]
    lo = [0] * fan.n_rays
    lo[ray_index] = 1
    hit = next(_ample_exponents(group, lo, caps, None, "cross_check_unrestricted"), None)
    if hit is not None:
        _check_witness(group, ray_index, hit)
    by_exponents = hit is not None
    by_polytope = len(facet_shift(p, ray_index).lattice_points()) > 0

    result = CrossCheckResult(by_exponents, by_polytope)
    if not result.agree:
        raise InternalConsistencyError(
            f"ray {ray_index}: exponent search says {by_exponents}, "
            f"divisor polytope says {by_polytope}"
        )
    return result
