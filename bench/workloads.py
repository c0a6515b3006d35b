"""The three benchmark workloads: seeded inputs, one job, and its checks.

``passes(seed)`` yields the inputs pass by pass, as plain coordinate lists,
so every job builds its polytopes fresh and no per-object cache survives
from one job to the next; no two passes repeat an input.  ``prepare`` does
the untimed per-job set-up, ``job`` the timed work, which returns a result
record of plain data, and ``checks`` names the pass/fail checks on a
record.  Every check holds for every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from sbvol import cli, formats
from sbvol import ledger as ledger_module
from sbvol.families import (
    builtin_seed_registry,
    dilated_simplex,
    divisor_23_double_cone,
    kollar_totaro,
)
from sbvol.ledger import dim4_pipeline, verdict, volume_ledger
from sbvol.polytope import LatticePolytope, RationalPolytope, hull, unimodular_equivalence
from sbvol.subdivision import (
    interior_cells,
    regular_subdivision,
    staged_distance_height,
    validate,
)


def _signed_permutation(rng, dim, shift=5):
    """(perm, signs, translation) of x -> (signs[i] * x[perm[i]] + t[i])_i.

    The map is a Euclidean isometry and a lattice automorphism, so distance
    heights, subdivisions, ledgers and verdicts do not depend on it.
    """
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    trans = [rng.randint(-shift, shift) for _ in range(dim)]
    return perm, signs, trans


def _apply_point(m, x):
    perm, signs, trans = m
    return tuple(s * x[j] + t for j, s, t in zip(perm, signs, trans))


def _apply_halfspace(m, normal, offset):
    """Image of <n, x> >= c: <P n, y> >= c + <P n, t> for y = P x + t."""
    perm, signs, trans = m
    pn = tuple(s * normal[j] for j, s in zip(perm, signs))
    return pn, offset + sum(a * t for a, t in zip(pn, trans))


# -- dim4-ledger -----------------------------------------------------------------


class Dim4Ledger:
    """dim4_pipeline(4*simplex4, kt(3,4)) under a seeded signed permutation and shift.

    The only workload where validate (196 maximal cells, 19,110 cell pairs)
    and ledger classification (727 interior cells) dominate.
    """

    name = "dim4-ledger"
    seed_name = "kt34"

    def passes(self, seed):
        rng = random.Random(seed)
        big, small = dilated_simplex(4, 4).vertices, kollar_totaro(3, 4).vertices
        while True:
            m = _signed_permutation(rng, 4)
            yield [
                {
                    "big": [_apply_point(m, v) for v in big],
                    "small": [_apply_point(m, v) for v in small],
                }
            ]

    def prepare(self, spec):
        seeds = builtin_seed_registry()
        seeds.register(
            self.seed_name,
            hull(spec["small"]),
            "double cover of P3 branched in a very general quartic",
        )
        return spec, seeds

    def job(self, prepared):
        spec, seeds = prepared
        # The pipeline validates its subdivision inside volume_ledger and
        # raises on failure; record that call's report instead of repeating
        # the validation, which is most of the job.
        reports = []
        validate_fn = ledger_module.validate

        def recorded_validate(s, p=None):
            reports.append(validate_fn(s, p))
            return reports[-1]

        ledger_module.validate = recorded_validate
        try:
            res = dim4_pipeline(hull(spec["big"]), hull(spec["small"]), seeds)
        finally:
            ledger_module.validate = validate_fn
        led = res.ledger
        entries = [
            (e.coefficient, e.tag.kind, e.tag.seed_name) for e in led.entries
        ]
        return {
            "verdict": res.verdict.status,
            "maximal_cells": len(res.subdivision.maximal_cells),
            "cells": len(res.subdivision.cells),
            "interior_cells": len(interior_cells(res.subdivision, res.subdivision.polytope)),
            "point_coefficient": led.point_coefficient,
            "entries": entries,
            "validate_ok": [r.ok for r in reports] == [True],
        }

    def checks(self, rec):
        return [
            ("verdict obstructed", rec["verdict"] == "obstructed"),
            ("196 maximal cells", rec["maximal_cells"] == 196),
            ("727 interior cells", rec["interior_cells"] == 727),
            ("ledger +1*[seed kt34]", rec["entries"] == [(1, "seed", self.seed_name)]),
            ("point coefficient 0", rec["point_coefficient"] == 0),
            ("validate ok", rec["validate_ok"]),
        ]


# -- staged-cone -----------------------------------------------------------------


class StagedCone:
    """Staged distance heights on the 7-dim double cone, then subdivide, validate, width.

    Nearly all the time is in min_squared_distance and validation is under
    2%, so a change to validate should not move this workload.
    """

    name = "staged-cone"

    def passes(self, seed):
        rng = random.Random(seed)
        dc = divisor_23_double_cone()
        dim = dc.polytope.ambient_dim
        while True:
            m = _signed_permutation(rng, dim)
            slices = []
            for stage in dc.slices():
                if isinstance(stage, LatticePolytope):
                    slices.append(("vertices", [_apply_point(m, v) for v in stage.vertices]))
                else:
                    slices.append(
                        ("halfspaces", [_apply_halfspace(m, n, c) for n, c in stage.halfspaces])
                    )
            yield [
                {
                    "dim": dim,
                    "polytope": [_apply_point(m, v) for v in dc.polytope.vertices],
                    "base": [_apply_point(m, v) for v in dc.embedded_base().vertices],
                    "slices": slices,
                }
            ]

    def prepare(self, spec):
        return spec

    def job(self, spec):
        p = hull(spec["polytope"])
        base = hull(spec["base"])
        slices = [
            hull(data) if kind == "vertices" else RationalPolytope(spec["dim"], data)
            for kind, data in spec["slices"]
        ]
        heights = staged_distance_height(p, base, slices)
        s = regular_subdivision(p, heights)
        rep = validate(s, p)
        touching = [
            c for c in s.maximal_cells if all(c.contains(v) for v in base.vertices)
        ]
        return {
            "validate_ok": rep.ok,
            "maximal_cells": len(s.maximal_cells),
            "cells": len(s.cells),
            "heights": sorted(heights.values()),
            "base_cell_widths": sorted(c.lattice_width()[0] for c in touching),
        }

    def checks(self, rec):
        want = sorted([Fraction(0)] * 12 + [Fraction(1), Fraction(6, 5), Fraction(2), Fraction(2)])
        widths = rec["base_cell_widths"]
        return [
            ("validate ok", rec["validate_ok"]),
            ("6 maximal cells", rec["maximal_cells"] == 6),
            ("671 cells", rec["cells"] == 671),
            ("heights {0x12, 1, 6/5, 2, 2}", rec["heights"] == want),
            ("base cells have width 1", bool(widths) and all(w == 1 for w in widths)),
        ]


# -- invariant-batch ---------------------------------------------------------------


def _rank(rows):
    """Rank of an integer matrix by exact elimination.

    The generator keeps its own copy so that the inputs do not depend on
    the program under test.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _random_points(rng, dim, coord, extra):
    while True:
        pts = [
            tuple(rng.randint(0, coord) for _ in range(dim))
            for _ in range(dim + 1 + rng.randint(0, extra))
        ]
        v0 = pts[0]
        if _rank([[a - b for a, b in zip(p, v0)] for p in pts[1:]]) == dim:
            return sorted(set(pts))


def _random_unimodular(rng, dim, steps, max_entry):
    """Integer matrix with determinant +-1 as a product of elementary row operations.

    Entries stay within max_entry: the cost of the width search grows
    steeply with the skew of the coordinates.
    """
    lin = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        row = [a + c * b for a, b in zip(lin[i], lin[j])]
        if max(abs(x) for x in row) <= max_entry:
            lin[i] = row
    rng.shuffle(lin)
    return lin


class InvariantBatch:
    """Many small random polytopes of dimension 2-4, each under a unimodular map.

    A job runs ``sbvol compute --all`` on the image's JSON document, finds
    the equivalence with the preimage, and builds, validates and reads the
    ledger of a subdivision from seeded integer heights.  It stresses width,
    enumeration, Fine interior and equivalence, runs validate and the ledger
    on many tiny subdivisions, and never uses distance heights.
    """

    name = "invariant-batch"
    # (dimension, coordinate box, most extra points beyond a simplex, jobs per
    # pass).  Every pass has this fixed mix, in seeded order, so passes and
    # seeds differ only in the polytopes drawn.  Dimension 4 keeps to 0/1
    # points and unimodular maps keep to entries in {-1, 0, 1}: with a box of
    # 2, or skewed maps, single width searches run for minutes.
    MIX = ((2, 4, 3, 16), (3, 3, 2, 14), (4, 1, 3, 10))
    MAX_ENTRY = 1
    HEIGHT_MAX = 3

    def __init__(self, workdir):
        self.workdir = Path(workdir)

    def passes(self, seed):
        rng = random.Random(seed)
        kinds = [m[:3] for m in self.MIX for _ in range(m[3])]
        k = 0
        while True:
            rng.shuffle(kinds)
            batch = []
            for kind in kinds:
                batch.append(self._spec(rng, f"job{k}", *kind))
                k += 1
            yield batch

    def _spec(self, rng, name, dim, coord, extra):
        pre = _random_points(rng, dim, coord, extra)
        lin = _random_unimodular(rng, dim, dim, self.MAX_ENTRY)
        shift = [rng.randint(-3, 3) for _ in range(dim)]
        image = [
            [sum(a * x for a, x in zip(row, p)) + t for row, t in zip(lin, shift)]
            for p in pre
        ]
        box = itertools.product(range(coord + 1), repeat=dim)
        heights = {x: rng.randint(0, self.HEIGHT_MAX) for x in box}
        doc = json.dumps({"name": name, "ambient_dim": dim, "vertices": image})
        return {"preimage": pre, "document": doc, "heights": heights}

    def prepare(self, spec):
        return spec

    def job(self, spec):
        path = self.workdir / "invariant-batch-input.json"
        path.write_text(spec["document"], encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["compute", "--all", "--input", str(path)])
        report = json.loads(out.getvalue()) if rc == 0 else {}

        p = hull(spec["preimage"])
        _, image = formats.load_polytope(spec["document"])
        eq = unimodular_equivalence(p, image)
        mapped = eq.found and eq.ambient_map is not None and sorted(
            eq.ambient_map.apply(v) for v in p.vertices
        ) == list(image.vertices)

        s = regular_subdivision(p, {x: spec["heights"][x] for x in p.lattice_points()})
        rep = validate(s, p)
        signed = sum((-1) ** c.dim() for c in interior_cells(s, p))
        led = volume_ledger(p, s, check=False) if rep.ok else None
        return {
            "rc": rc,
            "report": report,
            "equivalence_mapped": mapped,
            "validate_ok": rep.ok,
            "dim": p.dim(),
            "maximal_cells": len(s.maximal_cells),
            "signed_interior": signed,
            "hollow": p.n_interior_points() == 0,
            "all_rational": led is not None and not led.entries,
            "point_form": led is not None and led.is_point_form(),
            "ledger": led.describe() if led is not None else None,
            "verdict": verdict(led).status if led is not None else None,
        }

    def checks(self, rec):
        report = rec["report"]
        out = [
            ("rc == 0", rec["rc"] == 0),
            ("equivalence witness maps vertices", rec["equivalence_mapped"]),
            (
                "hodge row == face sum",
                "hodge_row" in report
                and report["hodge_row"] == report["hodge_row_by_face_sum"],
            ),
            ("validate ok", rec["validate_ok"]),
            ("signed interior cells == (-1)^dim", rec["signed_interior"] == (-1) ** rec["dim"]),
        ]
        if rec["hollow"] and rec["all_rational"]:
            out.append(("hollow all-rational ledger is a point", rec["point_form"]))
        return out


def make(name, workdir):
    if name == Dim4Ledger.name:
        return Dim4Ledger()
    if name == StagedCone.name:
        return StagedCone()
    if name == InvariantBatch.name:
        return InvariantBatch(workdir)
    raise KeyError(name)


NAMES = (Dim4Ledger.name, StagedCone.name, InvariantBatch.name)
