"""The signed obstruction ledger over a regular integral subdivision.

Each interior cell contributes its hypersurface class with sign
(-1)^(dim polytope) * (-1)^(dim cell).  Cells proven rational collapse to
the point class (with the exact multiplicity of their zero set: vertices
contribute nothing, a segment with r interior points contributes r+1
points).  Remaining cells are grouped by unimodular equivalence and carry
a tag that records why their class cannot cancel, when we can certify it.
The verdict applies only sound non-cancellation rules and degrades to
"inconclusive" rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateInputError, SubdivisionError
from .intlinalg import dot
from .polytope import (
    LatticePolytope,
    _bits,
    _flag,
    _instance,
    hull,
    unimodular_equivalence,
)
from .subdivision import (
    Subdivision,
    _interior,
    distance_height,
    lies_in_boundary,
    regular_subdivision,
    validate,
)
from .toric import fine_interior


@dataclass(frozen=True)
class CellClassTag:
    kind: str  # "rational" | "seed" | "strongly_varying" | "unknown"
    justification: str
    seed_name: str | None = None
    strongly_varying: bool = False


@dataclass(frozen=True)
class SeedEntry:
    name: str
    polytope: LatticePolytope  # span-normalized
    reason: str
    condition_m: bool | None = None


class SeedRegistry:
    """Polytopes consumed axiomatically as non-stably-rational."""

    def __init__(self):
        self.entries = []

    def register(self, name, polytope, reason, condition_m=None):
        _instance(polytope, LatticePolytope, "a lattice polytope")
        q, _ = polytope.normalize_full_dimensional()
        tag = classify_cell(q)
        if tag.kind == "rational":
            raise DegenerateInputError(
                f"{name}: this polytope is provably rational ({tag.justification})"
                " and cannot be a seed"
            )
        entry = SeedEntry(name, q, reason, condition_m)
        self.entries.append(entry)
        return entry

    def match(self, p: LatticePolytope):
        q, _ = _instance(p, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
        for entry in self.entries:
            res = unimodular_equivalence(q, entry.polytope)
            if res.found:
                return entry
        return None

    def __len__(self):
        return len(self.entries)


def classify_cell(cell: LatticePolytope, seeds: SeedRegistry | None = None) -> CellClassTag:
    """Tag a subdivision cell by the reason its class is under control.

    Rationality rules come first (dimension at most one, width one from
    the width search in the lattice of the cell's span, empty Fine interior
    in dimension at most three), then registered seeds, then interior
    lattice points, which certify strong variation on their own.  The Fine
    interior is computed only for a cell with no interior lattice point:
    such a point m has <m, n> > ord(n), both integers, for every primitive
    n, so it lies in the Fine interior and the rule cannot fire.

    An integer functional on the ambient space whose values on the cell's
    vertices spread exactly 1 also proves width one, in the lattice of the
    cell's span too: it is a nonzero integer functional there, and no cell
    of dimension at least one has width below 1.  `volume_ledger` settles
    most cells that way before they reach this function.
    """
    d = _instance(cell, LatticePolytope, "a lattice polytope").dim()
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if d <= 1:
        return CellClassTag("rational", "dimension at most one")
    q, _ = cell.normalize_full_dimensional()
    if q.lattice_width()[0] == 1:
        return CellClassTag("rational", "lattice width one")
    if d <= 3 and q.n_interior_points() == 0 and fine_interior(q).is_empty:
        return CellClassTag(
            "rational", "empty fine interior in dimension at most three"
        )
    if seeds is not None:
        entry = seeds.match(q)
        if entry is not None:
            varying = bool(entry.condition_m) or q.n_interior_points() >= 1
            why = f"registered non-stably-rational seed {entry.name!r}"
            if varying:
                why += " with strong variation"
            return CellClassTag("seed", why, entry.name, varying)
    interior = q.n_interior_points()
    if interior == 1:
        return CellClassTag(
            "strongly_varying", "unique interior lattice point", None, True
        )
    if interior > 1:
        return CellClassTag(
            "strongly_varying", f"{interior} interior lattice points", None, True
        )
    return CellClassTag("unknown", "no rationality or variation rule applies")


@dataclass(frozen=True)
class LedgerEntry:
    representative: LatticePolytope  # span-normalized
    tag: CellClassTag
    coefficient: int
    members: int


@dataclass(frozen=True)
class Ledger:
    point_coefficient: int
    entries: tuple  # LedgerEntry, zero coefficients dropped

    def is_point_form(self):
        return self.point_coefficient == 1 and not self.entries

    def describe(self):
        parts = []
        if self.point_coefficient:
            parts.append(f"{self.point_coefficient}*[point]")
        for e in self.entries:
            parts.append(f"{e.coefficient:+d}*[{e.tag.kind}:{e.tag.justification}]")
        return " ".join(parts) if parts else "0"


def volume_ledger(
    p: LatticePolytope,
    s: Subdivision,
    seeds: SeedRegistry | None = None,
    check: bool = True,
) -> Ledger:
    """Signed sum of cell classes over the interior cells of a valid subdivision.

    An interior cell of dimension at least two is settled as width one,
    and so as the point class, from the full-dimensional maximal cells it
    is a face of, when one of their functionals spreads exactly 1 on its
    vertices (see classify_cell).  First each such parent's width
    certificate l: the parent's vertices are split into masks over
    s.points by their level <l, v>, and a cell whose mask meets exactly
    two adjacent levels is settled by bit operations alone.  Then the
    parents' facet normals, which settle a cell in a coordinate hyperplane
    x_i = c, where every parent's certificate can be e_i.  A
    lower-dimensional maximal cell lends nothing: its certificate is in
    chart coordinates.  Only the cells left are built and classified.
    """
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if _flag(check, "volume_ledger: check"):
        report = validate(s, p)
        if not report.ok:
            raise SubdivisionError(
                "refusing an invalid subdivision: "
                + ", ".join(name for name, ok, _ in report.checks if not ok)
            )
    interior = _interior(s, p)  # checks s and p before p is read
    sign = -1 if p.dim() % 2 else 1
    point_coeff = 0
    groups = []  # [normalized cell, tag, coeff, members]
    lenders = _Lenders(s)
    for j in interior:
        d = s.cell_dims[j]
        coeff = sign * (-1 if d % 2 else 1)
        if d >= 2 and lenders.width_one(j):
            point_coeff += coeff
            continue
        cell = s.cells[j]
        tag = classify_cell(cell, seeds)
        if tag.kind == "rational":
            if d == 0:
                mult = 0  # a single monomial has empty zero set in the torus
            elif d == 1:
                # 1 + its interior lattice points, the gcd of its edge vector
                mult = gcd(*(a - b for a, b in zip(*cell.vertices)))
            else:
                mult = 1
            point_coeff += coeff * mult
            continue
        q, _ = cell.normalize_full_dimensional()
        for g in groups:
            if g[1] == tag and unimodular_equivalence(q, g[0]).found:
                g[2] += coeff
                g[3] += 1
                break
        else:
            groups.append([q, tag, coeff, 1])
    entries = tuple(
        LedgerEntry(*g)
        for g in sorted(groups, key=lambda g: g[0].fingerprint())
        if g[2] != 0
    )
    return Ledger(point_coeff, entries)


class _Lenders:
    """The functionals the full-dimensional maximal cells of s lend their faces.

    A maximal cell's levels are found the first time a face of dimension
    at least two asks, so the width of a maximal cell is searched only when
    a cell that needs it is classified, as before.
    """

    def __init__(self, s: Subdivision):
        self.s = s
        self.levels = {}  # maximal cell index -> sorted ((<l, v>, mask), ...), or None

    def _levels(self, k):
        if k not in self.levels:
            s = self.s
            self.levels[k] = None
            if s.maximal_cells[k].is_full_dimensional():
                l = s.maximal_cells[k].lattice_width()[1]
                by_value = {}
                for i in _bits(s.maximal_masks[k]):
                    h = dot(l, s.points[i])
                    by_value[h] = by_value.get(h, 0) | 1 << i
                self.levels[k] = sorted(by_value.items())
        return self.levels[k]

    def width_one(self, j):
        """Whether a parent's width certificate or facet normal spreads exactly 1 on cell j."""
        s = self.s
        mask = s.cell_masks[j]
        parents = []
        for k in _bits(s.cell_parents[j]):
            levels = self._levels(k)
            if levels is None:
                continue
            met = [h for h, m in levels if m & mask]
            if len(met) == 2 and met[1] - met[0] == 1:
                return True
            parents.append(s.maximal_cells[k])
        verts = [s.points[i] for i in _bits(mask)]
        for cell in parents:
            for n, _ in cell.facet_system():
                values = [dot(n, v) for v in verts]
                if max(values) - min(values) == 1:
                    return True
        return False


@dataclass(frozen=True)
class Verdict:
    status: str  # "obstructed" | "unobstructed" | "inconclusive"
    justification: str


def verdict(ledger: Ledger) -> Verdict:
    """Sound reading of the ledger: obstructed only via non-cancellation arguments."""
    entries = ledger.entries
    if not entries:
        if ledger.point_coefficient == 1:
            return Verdict("unobstructed", "the ledger is exactly one point class")
        return Verdict(
            "obstructed",
            f"every class is the point class, with total coefficient "
            f"{ledger.point_coefficient} != 1",
        )
    strong = [e for e in entries if e.tag.strongly_varying]
    if strong:
        e = strong[0]
        return Verdict(
            "obstructed",
            f"the class tagged '{e.tag.justification}' has coefficient "
            f"{e.coefficient} and strong variation prevents it from cancelling "
            "against any other term or the point class",
        )
    has_seed = any(e.tag.kind == "seed" for e in entries)
    signs = {1 if e.coefficient > 0 else -1 for e in entries}
    if has_seed and len(signs) == 1:
        return Verdict(
            "obstructed",
            "all non-point classes carry one sign, so they cannot cancel, and a "
            "registered non-stably-rational class among them differs from the point class",
        )
    return Verdict(
        "inconclusive",
        "uncertain classes remain and no non-cancellation rule applies",
    )


@dataclass(frozen=True)
class PipelineResult:
    verdict: Verdict
    ledger: Ledger | None  # None, with no subdivision, when the Kodaira shortcut decides
    subdivision: Subdivision | None


def dim4_pipeline(big: LatticePolytope, small: LatticePolytope, seeds: SeedRegistry):
    """Distance-height obstruction pipeline for ambient dimension at most 4.

    When the big polytope has nonempty Fine interior the verdict is
    immediate (nonnegative Kodaira dimension).  Otherwise every proper cell
    of dimension at most three is rational, all cells of top dimension
    enter with one sign, and the seed class survives.
    """
    bq, chart = _instance(big, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
    _instance(small, LatticePolytope, "a lattice polytope")
    _instance(seeds, SeedRegistry, "a seed registry")
    if bq.dim() > 4:
        raise DegenerateInputError("pipeline hypothesis: ambient dimension at most 4")
    try:
        sverts = [chart.to_chart(v) for v in small.vertices]
    except DegenerateInputError as exc:
        raise DegenerateInputError("the small polytope must sit inside the big one") from exc
    sq = hull(sverts)
    if not all(bq.contains(v) for v in sq.vertices):
        raise DegenerateInputError("the small polytope must sit inside the big one")
    if lies_in_boundary(bq, sq.vertices):
        raise DegenerateInputError(
            "pipeline hypothesis: the small polytope may not lie in the boundary"
        )
    if seeds.match(sq) is None:
        raise DegenerateInputError("the small polytope must be a registered seed")
    fi = fine_interior(bq)
    if not fi.is_empty:
        return PipelineResult(
            Verdict(
                "obstructed",
                "the fine interior of the big polytope is nonempty, so a general "
                "section has nonnegative Kodaira dimension and is not stably rational",
            ),
            None,
            None,
        )
    heights = distance_height(bq, sq)
    s = regular_subdivision(bq, heights)
    if sq not in s.cells:
        raise SubdivisionError(
            "the distance subdivision merged the seed with other points; "
            "the seed is not a cell"
        )
    led = volume_ledger(bq, s, seeds)
    return PipelineResult(verdict(led), led, s)
