"""Interchange formats: polytope documents, subdivision and ledger exports.

Documents are JSON with sorted keys; rationals are rendered "p/q" (or "p"
when integral) so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import DegenerateInputError
from .ledger import Ledger, Verdict
from .polytope import LatticePolytope, _bits, _int_in, _is_rational, hull
from .subdivision import Subdivision, _boundary_test


def fraction_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    """A JSON integer or a "p" / "p/q" string with a nonzero denominator."""
    if _is_rational(s):  # a JSON integer
        return Fraction(s)
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s) if isinstance(s, str) else None
    q = int(match.group(2) or 1) if match else 0
    if q == 0:
        raise DegenerateInputError(f"integer or \"p/q\" rational with q > 0 expected, got {s!r}")
    return Fraction(int(match.group(1)), q)


def polytope_to_dict(p: LatticePolytope, name: str = "") -> dict:
    return {
        "name": name,
        "ambient_dim": p.ambient_dim,
        "vertices": [list(v) for v in p.vertices],
    }


def polytope_from_dict(doc: dict) -> tuple:
    """(name, polytope); vertices are re-verified through the hull."""
    if not isinstance(doc, dict):
        raise DegenerateInputError(f"a polytope document is a JSON object, not a {type(doc).__name__}")
    try:
        name = doc.get("name", "")
        ambient = _int_in(doc["ambient_dim"], "ambient_dim")
        vertices = [tuple(_int_in(x, "vertex coordinate") for x in v) for v in doc["vertices"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DegenerateInputError(f"malformed polytope document: {exc}") from exc
    if not vertices:
        raise DegenerateInputError("polytope document has no vertices")
    if any(len(v) != ambient for v in vertices):
        raise DegenerateInputError("vertex length does not match ambient_dim")
    return name, hull(vertices)


def load_polytope(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DegenerateInputError(f"not a JSON document: {exc}") from exc
    return polytope_from_dict(doc)


def heights_to_doc(heights: dict) -> dict:
    return {
        "heights": [[list(k), fraction_str(v)] for k, v in sorted(heights.items())]
    }


def heights_from_doc(doc: dict) -> dict:
    """The height table; a point listed twice is rejected, not overwritten."""
    try:
        rows = [
            (tuple(_int_in(x, "height point coordinate") for x in k), parse_fraction(v))
            for k, v in doc["heights"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DegenerateInputError(f"malformed height table: {exc}") from exc
    heights = {}
    for x, h in rows:
        if x in heights:
            raise DegenerateInputError(f"height table lists the point {list(x)} twice")
        heights[x] = h
    return heights


def subdivision_to_dict(s: Subdivision) -> dict:
    """Cells with dimensions and boundary flags, plus the height table; no cell is built."""
    in_boundary = _boundary_test(s.points, s.polytope)
    maximal = set(s.maximal_masks)
    cells = [
        {
            "vertices": [list(s.points[i]) for i in _bits(mask)],
            "dim": d,
            "boundary": in_boundary(mask),
            "maximal": mask in maximal,
        }
        for mask, d in zip(s.cell_masks, s.cell_dims)
    ]
    doc = {
        "polytope": polytope_to_dict(s.polytope),
        "cells": cells,
    }
    if s.heights is not None:
        doc.update(heights_to_doc(dict(s.heights)))
    return doc


def ledger_to_dict(ledger: Ledger, v: Verdict) -> dict:
    return {
        "provenance": "subdivision ledger",
        "point_coefficient": ledger.point_coefficient,
        "classes": [
            {
                "coefficient": e.coefficient,
                "members": e.members,
                "tag": e.tag.kind,
                "justification": e.tag.justification,
                "seed": e.tag.seed_name,
                "fingerprint": e.representative.fingerprint(),
                "representative": [list(x) for x in e.representative.vertices],
            }
            for e in ledger.entries
        ],
        "verdict": v.status,
        "justification": v.justification,
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
