"""Hodge-level invariants of hypersurface sections, read off the face lattice.

For a full-dimensional lattice polytope of dimension n+1 the compact
section has h^{p,0} = 0 for 0 < p < n and h^{n,0} equal to the number of
interior lattice points.  The open invariants e^{p,0} are signed sums of
interior point counts over (p+1)-faces; at p = 0 there is an extra
vertex-count term, pinned here by requiring the face-sum route to agree
with the closed form and with plane curves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import DegenerateInputError
from .polytope import LatticePolytope, _bits, _instance, _int_in


@dataclass(frozen=True)
class HodgeRow:
    """h^{p,0} for p = 0..dim-1, with the face-sum cross-check recorded."""

    values: tuple
    by_face_sum: tuple

    @property
    def agree(self):
        return self.values == self.by_face_sum


def _face_data(p: LatticePolytope):
    """(vertex bitmask, dim, interior count, vertex count) for every face.

    The points in a face's relative interior are those whose carrier is the
    AND of its vertices' carriers: they lie on exactly the facets it lies on.
    """
    table = p._carriers()
    counts = Counter(table.values())
    carriers = [table[v] for v in p.vertices]
    return {
        f: (d, counts[reduce(and_, (carriers[i] for i in _bits(f)))], f.bit_count())
        for f, d in p._face_masks().items()
    }


def _e_open_row(face_items, sub, sub_dim, length):
    """e^{p,0}, p < length, of the open piece attached to the face `sub`, in one pass over
    its faces: from -1 in degree 0, a (p+1)-face adds its interior count in degree p and a
    vertex adds 1 in degree 0."""
    row = [-1] + [0] * (length - 1)
    for f, (d, interior, _nv) in face_items:
        if f & sub == f:
            row[max(d - 1, 0)] += interior if d else 1
    return [(-1) ** (sub_dim + 1) * e for e in row]


def e_p0_open(p: LatticePolytope, degree: int) -> int:
    """Signed interior-count sum over (degree+1)-faces; vertex-corrected at degree 0."""
    q, _ = _instance(p, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
    n = q.dim()
    _int_in(degree, "degree", 0, n - 1)
    faces = _face_data(q)
    full = next(f for f, (d, _i, _nv) in faces.items() if d == n)
    return _e_open_row(faces.items(), full, n, n)[degree]


def h_p0_compact(p: LatticePolytope) -> HodgeRow:
    """The row h^{p,0} of the compact section, by closed form and by face sum.

    The face sum adds the open invariant of every torus orbit piece; the
    star of each intermediate face is contractible, so everything except
    the top interior count cancels.  Both routes are computed and must
    agree, which pins the sign conventions exactly.
    """
    q, _ = _instance(p, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
    m = q.dim()  # = n + 1
    if m < 2:
        raise DegenerateInputError("the compact row needs dimension at least 2")
    n = m - 1
    closed = [0] * m
    closed[0] = 1
    closed[n] = q.n_interior_points()
    faces = _face_data(q).items()
    face_rows = [_e_open_row(faces, f, d, m) for f, (d, _i, _nv) in faces]
    by_sum = [sum(col) if deg % 2 == 0 else -sum(col) for deg, col in enumerate(zip(*face_rows))]
    return HodgeRow(tuple(closed), tuple(by_sum))
