"""The acceptance suite: every hard-coded computation the package must reproduce.

Each criterion returns a CriterionResult with its elapsed time; the stated
budgets are part of the criterion.  All comparisons are exact; nothing is
approximated.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .conditionm import check_condition_m, cross_check_unrestricted, sections_of_class
from .families import (
    bounds_table,
    dilated_simplex,
    divisor_23_certificate_map,
    divisor_23_double_cone,
    containment_certificate,
    hpt,
    kollar_totaro,
    schreieder,
    simplex_product,
    sum_identity,
    tpq,
)
from .hodge import h_p0_compact
from .ledger import verdict, volume_ledger
from .polytope import (
    AffineUnimodularMap,
    hull,
    unimodular_equivalence,
)
from .subdivision import height_function, interior_cells, regular_subdivision, validate
from .toric import class_group, fine_interior, normal_fan

SEED = 20260809


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    seconds: float
    budget: float
    detail: str

    @property
    def passed(self):
        return self.ok and self.seconds < self.budget


def _run(name, budget, fn):
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return CriterionResult(name, ok, dt, budget, detail)


# -- 1: the golden Fine interior -------------------------------------------------------


def _c01_fine_interior_golden():
    p = hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)])
    fi = fine_interior(p)
    expected = sorted(
        tuple(Fraction(a, 5) for a in v)
        for v in [(7, 12, 6), (9, 9, 7), (6, 11, 8), (8, 13, 9)]
    )
    got = sorted(fi.vertices())
    ok = got == expected and fi.dim == 3
    return ok, f"vertices {'match' if ok else got}"


# -- 2: the (2,2) divisor polytope ------------------------------------------------------

HPT_SECTION_MONOMIALS = [
    (2, 0, 0, 0, 0, 0),
    (0, 4, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 4, 0, 0),
    (0, 0, 0, 0, 4, 0),
    (0, 0, 0, 0, 0, 2),
    (1, 1, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 1),
    (0, 1, 1, 0, 1, 0),
    (0, 2, 0, 0, 2, 0),
    (0, 0, 0, 2, 2, 0),
    (0, 2, 0, 2, 0, 0),
]


def _match_up_to_ray_permutation(got, expected):
    """Is there one permutation of coordinates mapping one set onto the other?"""
    n = len(expected[0])
    got = set(got)
    expected_set = set(expected)
    for perm in itertools.permutations(range(n)):
        if {tuple(w[j] for j in perm) for w in got} == expected_set:
            return perm
    return None


def _c02_hpt():
    p = hpt()
    g = class_group(p)
    if g.describe() != (1, (2, 2)):
        return False, f"class group {g.describe()} != (1, (2, 2))"
    sections = sections_of_class(p, g.fan.ample_coefficients())
    if len(sections) != 12:
        return False, f"{len(sections)} sections, expected 12"
    perm = _match_up_to_ray_permutation(
        [w for _, w in sections], HPT_SECTION_MONOMIALS
    )
    if perm is None:
        return False, "section exponents do not match the listed monomials"
    rep = check_condition_m(p, mode="reduced")
    if not rep.holds:
        return False, "condition (M) fails in reduced mode"
    return True, "class group Z x Z/2 x Z/2, 12 sections, condition (M) holds"


# -- 3: the small-support hypersurface polytopes -----------------------------------------


def _c03_schreieder_class_groups():
    for n in (3, 4):
        data = schreieder(n)
        d = n + 2
        g = class_group(data.polytope)
        if g.invariant_factors != tuple([2] * n) or g.free_rank != 1:
            return False, f"n={n}: class group {g.describe()}"
        ample = g.ample_class()
        if abs(ample.free[0]) != 2 * d or any(t != 0 for t in ample.torsion):
            return False, f"n={n}: ample class {ample}"
        rep = check_condition_m(data.polytope)
        if not rep.holds:
            return False, f"n={n}: condition (M) fails"
    return True, "condition (M) and (Z/2)^n x Z with ample (0,..,0,2d) for n=3,4"


# -- 4: the extension-budget sum --------------------------------------------------------


def _c04_sum_identity():
    for n in range(2, 13):
        lhs, rhs, equal = sum_identity(n)
        if not equal:
            return False, f"n={n}: {lhs} != {rhs}"
    return True, "enumeration matches 2^(n-2)(n-1) for 2 <= n <= 12"


# -- 5: the cut-plane pipeline -----------------------------------------------------------


def _c05_quartic_surface_pipeline():
    p = dilated_simplex(4, 3)
    heights = height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4))
    s = regular_subdivision(p, heights)
    rep = validate(s)
    if not rep.ok:
        return False, f"subdivision invalid: {rep.failed()}"
    three_cells = [c for c in s.maximal_cells if c.dim() == 3]
    if len(three_cells) != 2:
        return False, f"{len(three_cells)} maximal cells, expected 2"
    eq = unimodular_equivalence(three_cells[0], three_cells[1])
    if not eq.found:
        return False, "the two 3-cells are not detected unimodularly equivalent"
    triangles = [c for c in interior_cells(s) if c.dim() == 2]
    if len(triangles) != 1 or triangles[0].n_interior_points() != 1:
        return False, "middle triangle with one interior point not found"
    led = volume_ledger(p, s)
    v = verdict(led)
    ok = (
        led.point_coefficient == 2
        and len(led.entries) == 1
        and led.entries[0].coefficient == -1
        and led.entries[0].tag.strongly_varying
        and v.status == "obstructed"
    )
    return ok, f"ledger {led.describe()}; verdict {v.status}"


# -- 6: the width suite --------------------------------------------------------------------


def _c06_width_suite():
    for q in range(1, 51):
        for p_ in range(1, q + 1):
            if gcd(p_, q) != 1:
                continue
            w, _ = tpq(p_, q).lattice_width()
            if w != 1:
                return False, f"width(T({p_},{q})) = {w} != 1"
    for n in range(1, 6):
        for d in range(1, 7):
            w, cert = dilated_simplex(d, n).lattice_width()
            if w != d:
                return False, f"width({d}D{n}) = {w} != {d}"
    return True, "width(T(p,q)) = 1 for coprime p <= q <= 50; width(d Dn) = d"


# -- 7: empty simplices ----------------------------------------------------------------------


def _c07_empty_simplices():
    wide = hull(
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (6, 14, 17, 65),
        ]
    )
    cw = wide.classify()
    fi = fine_interior(wide)
    if not cw.is_empty_simplex:
        return False, "the width-4 simplex is not flagged as an empty simplex"
    if fi.is_empty or fi.dim != 4:
        return False, f"its fine interior has dim {fi.dim}, expected 4"
    kt = kollar_totaro(4, 4)
    ck = kt.classify()
    fik = fine_interior(kt)
    if not ck.is_empty_simplex:
        return False, "the double-cover polytope is not flagged as an empty simplex"
    if not fik.is_empty:
        return False, "the double-cover polytope should have empty fine interior"
    return True, "both empty simplices classified, fine interiors dim 4 and empty"


# -- 8: Hodge rows -----------------------------------------------------------------------------


def _c08_hodge():
    for n in range(2, 7):
        for d in range(1, 7):
            row = h_p0_compact(dilated_simplex(d, n))
            expected = tuple([1] + [0] * (n - 2) + [comb(d - 1, n)])
            if row.values != expected or not row.agree:
                return False, f"(d={d}, n={n}): {row.values} vs {expected}, face sum {row.by_face_sum}"
    return True, "h^(n-1,0)(d Dn) = C(d-1, n) by closed form and face sum, zeros between"


# -- 9: bound tables ----------------------------------------------------------------------------


def _c09_bounds():
    rows, _ = bounds_table([3, 4], "hypersurface")
    if rows[0].degree != 5 or rows[0].n_max != 13:
        return False, f"n=3 row: degree {rows[0].degree}, N_max {rows[0].n_max}"
    if rows[1].degree != 6 or rows[1].n_max != 30:
        return False, f"n=4 row: degree {rows[1].degree}, N_max {rows[1].n_max}"
    for n in range(2, 9):
        lhs, _, _ = sum_identity(n)
        (row,), _ = bounds_table([n], "double_cover")
        want_r_max = 2**n - 2 + lhs - n // 2
        if row.n_max - row.n != want_r_max:
            return False, f"double cover n={n}: r_max {row.n_max - row.n} != {want_r_max}"
        if row.degree != 2 * ((n + 1) // 2) + 2:
            return False, f"double cover n={n}: degree {row.degree}"
    return True, "quintics to N=13, sextics to N=30, double-cover budget matches enumeration"


# -- 10: the product containment certificate ------------------------------------------------------


def _c10_divisor23():
    dc = divisor_23_double_cone()
    if len(dc.polytope.vertices) != 10 or dc.polytope.dim() != 7:
        return False, "the double cone does not have 10 vertices in dimension 7"
    target = simplex_product([(2, 3), (3, 4)])
    cert = containment_certificate(dc.polytope, target, divisor_23_certificate_map())
    if not cert.contained:
        return False, f"violated halfspace {cert.violated_halfspace} at {cert.violating_vertex}"
    return True, "all ten image vertices satisfy the product halfspaces exactly"


# -- 11: randomized property suites ------------------------------------------------------------------


def _random_polytope(rng, dim, coord=3, extra=2):
    while True:
        pts = [
            tuple(rng.randint(0, coord) for _ in range(dim))
            for _ in range(dim + 1 + rng.randint(0, extra))
        ]
        p = hull(pts)
        if p.dim() == dim:
            return p


def _random_unimodular(rng, dim, steps=4):
    m = AffineUnimodularMap.identity(dim)
    lin = [list(r) for r in m.linear]
    for _ in range(steps):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for k in range(dim):
            lin[i][k] += c * lin[j][k]
    t = tuple(rng.randint(-2, 2) for _ in range(dim))
    return AffineUnimodularMap(tuple(tuple(r) for r in lin), t)


def _c11a_fine_interior_monotone():
    rng = random.Random(SEED)
    done = 0
    while done < 200:
        dim = rng.choice([2, 2, 2, 3, 3, 4])
        big = _random_polytope(rng, dim)
        pts = big.lattice_points()
        if len(pts) <= dim + 1:
            continue
        k = rng.randint(dim + 1, min(len(pts), dim + 4))
        small = hull(rng.sample(pts, k))
        if small.dim() != dim:
            continue
        fi_small = fine_interior(small)
        fi_big = fine_interior(big)
        if not fi_small.is_empty:
            for v in fi_small.vertices():
                if not fi_big.polytope.contains(v):
                    return False, f"monotonicity fails: {small.vertices} in {big.vertices}"
        done += 1
    return True, "200 nested pairs"


def _c11b_width_invariance():
    rng = random.Random(SEED + 1)
    for trial in range(200):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim)
        m = _random_unimodular(rng, dim)
        w1 = p.lattice_width()[0]
        w2 = m.apply_polytope(p).lattice_width()[0]
        if w1 != w2:
            return False, f"width changed under {m}: {w1} vs {w2} on {p.vertices}"
    return True, "200 random unimodular maps"


def _c11c_condition_m_agreement():
    rng = random.Random(SEED + 2)
    done = 0
    while done < 50:
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=2)
        for i in range(normal_fan(p).n_rays):
            cross_check_unrestricted(p, i)  # raises on disagreement
        done += 1
    return True, "50 polytopes, every ray, both routes agree"


def _c11d_subdivisions():
    rng = random.Random(SEED + 3)
    done = 0
    point_form_checked = 0
    while done < 100:
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=3 if dim == 2 else 2)
        heights = {x: rng.randint(0, 6) for x in p.lattice_points()}
        s = regular_subdivision(p, heights)
        rep = validate(s)
        if not rep.ok:
            return False, f"invalid subdivision on {p.vertices}: {rep.failed()}"
        signed = sum((-1) ** c.dim() for c in interior_cells(s))
        if signed != (-1) ** p.dim():
            return False, f"signed interior count {signed} on {p.vertices}"
        if p.classify().is_hollow:
            led = volume_ledger(p, s, check=False)
            if not led.entries:  # every interior cell was rational
                if not led.is_point_form():
                    return False, f"hollow all-rational ledger {led.describe()}"
                point_form_checked += 1
        done += 1
    if point_form_checked == 0:
        return False, "no hollow all-rational subdivision was exercised"
    return True, f"100 subdivisions; {point_form_checked} hollow all-rational ledgers were one point"


ALL_CRITERIA = (
    ("fine-interior-golden", 1.0, _c01_fine_interior_golden),
    ("hpt-class-group-sections-condition-m", 5.0, _c02_hpt),
    ("schreieder-class-groups", 60.0, _c03_schreieder_class_groups),
    ("extension-budget-sum", 1.0, _c04_sum_identity),
    ("quartic-surface-pipeline", 5.0, _c05_quartic_surface_pipeline),
    ("width-suite", 30.0, _c06_width_suite),
    ("empty-simplices", 10.0, _c07_empty_simplices),
    ("hodge-rows", 10.0, _c08_hodge),
    ("bound-tables", 1.0, _c09_bounds),
    ("product-containment-certificate", 1.0, _c10_divisor23),
    ("property-fine-interior-monotone", 120.0, _c11a_fine_interior_monotone),
    ("property-width-invariance", 120.0, _c11b_width_invariance),
    ("property-condition-m-agreement", 120.0, _c11c_condition_m_agreement),
    ("property-subdivisions-and-ledgers", 120.0, _c11d_subdivisions),
)


def run_all(only=None):
    results = []
    for name, budget, fn in ALL_CRITERIA:
        if only and only not in name:
            continue
        results.append(_run(name, budget, fn))
    return results
