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
    _as_int_tuple,
    _as_tuple,
    _bits,
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


def classify_cell(
    cell: LatticePolytope, seeds: SeedRegistry | None = None, certificates=()
) -> CellClassTag:
    """Tag a subdivision cell by the reason its class is under control.

    Rationality rules come first (dimension at most one, width one, empty
    Fine interior in dimension at most three), then registered seeds, then
    interior lattice points, which certify strong variation on their own.
    The Fine interior is computed only for a cell with no interior lattice
    point: such a point m has <m, n> > ord(n), both integers, for every
    primitive n, so it lies in the Fine interior and the rule cannot fire.

    certificates is an iterable of integer functionals on the ambient
    space (anything else raises), such as the width certificates of the
    full-dimensional cells that contain this one.  One whose values on the
    cell's vertices spread exactly 1 proves lattice width one, in the
    lattice of the cell's own span too, without a chart or a width search;
    otherwise the cell is charted and its width searched.
    """
    d = _instance(cell, LatticePolytope, "a lattice polytope").dim()
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if d <= 1:
        return CellClassTag("rational", "dimension at most one")
    for l in _as_tuple(certificates, "certificates"):
        l = _as_int_tuple(l, cell.ambient_dim, "certificate")
        values = [dot(l, v) for v in cell.vertices]
        if max(values) - min(values) == 1:
            return CellClassTag("rational", "lattice width one")
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
    """Signed sum of cell classes over the interior cells of a valid subdivision."""
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if check:
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
    for j in interior:
        cell = s.cells[j]
        d = cell.dim()
        coeff = sign * (-1 if d % 2 else 1)
        tag = classify_cell(cell, seeds, _width_certificates(s, s.cell_parents[j]))
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


def _width_certificates(s: Subdivision, parents):
    """Width certificates of the full-dimensional maximal cells in the bitmask parents.

    classify_cell takes every certificate before it tests any, so each
    parent's width is searched; that costs nothing extra, since every
    maximal cell is an interior cell and is classified by its own width.
    A lower-dimensional cell's certificate is in its chart's coordinates,
    not the ambient ones, so it lends none.
    """
    for k in _bits(parents):
        cell = s.maximal_cells[k]
        if cell.is_full_dimensional():
            yield cell.lattice_width()[1]


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
