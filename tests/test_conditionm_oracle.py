"""Oracle for the condition (M) witness scans.

The witness pool of reduced mode and route one of the unrestricted cross
check run one `integer_points` scan each.  They replaced a recursive
depth-first enumerator with its own interval pruning; that enumerator and
the two routines built on it are kept below, unchanged, as the oracle.
Both must give equal witness pools in the same order, equal per-ray
witnesses and equal route-one answers, and the scan must finish within the
node count the old enumerator spent on the same input.
"""

import random
import sys

import pytest

from sbvol import polytope, verification
from sbvol.conditionm import check_condition_m, cross_check_unrestricted, reduced_witnesses
from sbvol.errors import ResourceLimitError
from sbvol.families import hpt, schreieder, tpq
from sbvol.intlinalg import dot
from sbvol.polytope import dilate, hull
from sbvol.toric import class_group, normal_fan


def oracle_free_prunable_dfs(free_parts, target_free, accept, chosen_cap, budget=2_000_000):
    """Enumerate exponent vectors with per-ray caps hitting an exact free degree.

    free_parts[i] is the free part (tuple) of ray i's class, chosen_cap[i]
    the maximal exponent.  Vectors whose free degree cannot reach the
    target (componentwise interval argument over the remaining rays) are
    pruned.  Each complete vector is passed to accept().
    """
    n = len(free_parts)
    fr = len(target_free)
    suf_min = [[0] * fr for _ in range(n + 1)]
    suf_max = [[0] * fr for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(fr):
            contrib = free_parts[i][j] * chosen_cap[i]
            lo = min(0, contrib)
            hi = max(0, contrib)
            suf_min[i][j] = suf_min[i + 1][j] + lo
            suf_max[i][j] = suf_max[i + 1][j] + hi
    nodes = 0
    vec = [0] * n

    def rec(i, acc):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"_free_prunable_dfs: condition (M) witness enumeration spent {nodes} nodes,"
                f" over its budget of {budget} ({n} rays, free rank {fr})"
            )
        for j in range(fr):
            if not (
                acc[j] + suf_min[i][j] <= target_free[j] <= acc[j] + suf_max[i][j]
            ):
                return
        if i == n:
            accept(tuple(vec))
            return
        fp = free_parts[i]
        for k in range(chosen_cap[i] + 1):
            vec[i] = k
            rec(i + 1, tuple(a + k * f for a, f in zip(acc, fp)))
        vec[i] = 0

    rec(0, tuple([0] * fr))


def oracle_reduced_witnesses(group, budget=2_000_000):
    """All square-free exponent vectors of ample degree, sorted."""
    n = group.fan.n_rays
    target = group.ample_class()
    found = []

    def accept(vec):
        if group.degree(vec).torsion == target.torsion:
            found.append(vec)

    free_parts = [group.ray_degree(i).free for i in range(n)]
    oracle_free_prunable_dfs(free_parts, target.free, accept, [1] * n, budget=budget)
    return sorted(found)


def oracle_route_one(p, ray_index, fan, budget=2_000_000):
    """Route one of the cross check: does an exponent vector of ample degree vanish on the ray?"""
    group = class_group(p)
    target = group.ample_class()
    caps = []
    for u, c in zip(fan.rays, fan.offsets):
        caps.append(max(dot(v, u) for v in p.vertices) - c)
    found = []

    def accept(vec):
        if found or vec[ray_index] < 1:
            return
        if group.degree(vec).torsion == target.torsion:
            found.append(vec)

    free_parts = [group.ray_degree(i).free for i in range(fan.n_rays)]
    oracle_free_prunable_dfs(free_parts, target.free, accept, caps, budget=budget)
    return bool(found)


_REC = next(
    c for c in oracle_free_prunable_dfs.__code__.co_consts if getattr(c, "co_name", "") == "rec"
)


def dfs_nodes(run):
    """(result of run(), nodes the oracle enumerator spent): one node per call of its rec."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is _REC:
            nodes += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, nodes


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


def criterion_11c_polytopes():
    """The polytopes of the property-condition-m-agreement criterion."""
    rng = random.Random(verification.SEED + 2)
    return [verification._random_polytope(rng, rng.choice([2, 2, 3]), coord=2) for _ in range(50)]


SMALL = {
    "hpt": hpt,
    "tpq(1,2)": lambda: tpq(1, 2),
    "tpq(2,5)": lambda: tpq(2, 5),
    "2*simplex(2)": lambda: dilate(simplex(2), 2),
    "3*simplex(3)": lambda: dilate(simplex(3), 3),
    "5*simplex(3)": lambda: dilate(simplex(3), 5),
    "6*simplex(4)": lambda: dilate(simplex(4), 6),
}
REDUCED = {
    **SMALL,
    "schreieder(3)": lambda: schreieder(3).polytope,
    "schreieder(4)": lambda: schreieder(4).polytope,
}


def check_reduced(p):
    group = class_group(p)
    pool, nodes = dfs_nodes(lambda: oracle_reduced_witnesses(group))
    assert reduced_witnesses(group, budget=nodes) == pool
    report = check_condition_m(p, budget=nodes)
    n = group.fan.n_rays
    assert report.witnesses == tuple(next((w for w in pool if w[i] >= 1), None) for i in range(n))


def check_route_one(p, rays=None):
    fan = normal_fan(p)
    for i in range(fan.n_rays) if rays is None else rays:
        exists, nodes = dfs_nodes(lambda: oracle_route_one(p, i, fan))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "DEFAULT_POINT_BUDGET", nodes)
            res = cross_check_unrestricted(p, i)
        assert res.exists_by_exponents == exists == res.exists_by_polytope


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_pool_and_witnesses(name):
    check_reduced(REDUCED[name]())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_route_one(name):
    check_route_one(SMALL[name]())


def test_route_one_schreieder_3_first_rays():
    check_route_one(schreieder(3).polytope, rays=range(3))


def test_criterion_11c_polytopes():
    for p in criterion_11c_polytopes():
        check_reduced(p)
        check_route_one(p)


def test_route_one_stops_at_its_first_hit(monkeypatch):
    # the oracle spends 42,000 nodes on this ray; the scan stops at its first hit, after 1,076
    p = schreieder(3).polytope
    fan = normal_fan(p)
    monkeypatch.setattr(polytope, "DEFAULT_POINT_BUDGET", 2_000)
    res = cross_check_unrestricted(p, 0)
    assert res.exists_by_exponents and res.agree

