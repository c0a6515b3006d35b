"""Batch command line front end.

Subcommands: compute, fine-interior, width, condition-m, class-group,
subdivide, ledger, construct, bounds-table, verify-paper.  All flags are
long flags; input documents use the JSON interchange format.  Exit codes:
0 success, 1 verification failure, 2 usage or input error, 3 internal
consistency error (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import formats
from .conditionm import check_condition_m
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
    SbvolError,
)
from .families import FAMILIES, bounds_table, build, builtin_seed_registry
from .hodge import h_p0_compact
from .ledger import verdict, volume_ledger
from .polytope import hull
from .subdivision import distance_height, regular_subdivision, validate
from .toric import class_group, fine_interior
from .verification import run_all


def _read_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_polytope(path):
    return formats.load_polytope(_read_document(path))


def _emit(doc, output):
    _write_text(formats.dumps(doc), output)


def _write_text(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fraction_vertices(rp):
    return [[formats.fraction_str(x) for x in v] for v in rp.vertices()]


def _fine_interior_section(fi):
    vertices = _fraction_vertices(fi.polytope) if not fi.is_empty else []
    return {"empty": fi.is_empty, "dim": fi.dim, "is_lattice": fi.is_lattice, "vertices": vertices}


def _condition_m_section(rep):
    witnesses = [list(w) if w else None for w in rep.witnesses]
    return {"holds": rep.holds, "mode": rep.mode, "witnesses": witnesses}


def _class_element(c):
    return {"free": list(c.free), "torsion": list(c.torsion)}


def _compute_report(name, p, which, max_points):
    report = {"name": name, "ambient_dim": p.ambient_dim, "dim": p.dim()}
    q, _ = p.normalize_full_dimensional()
    if which("width") and p.dim() >= 1:
        w, cert = p.lattice_width()
        report["width"] = w
        report["width_certificate"] = list(cert)
    if which("classify") or which("hodge") and p.dim() >= 2:
        p.lattice_points(budget=max_points)  # fills the one table that classify and hodge read
    if which("classify"):
        c = p.classify()
        report["classification"] = {
            "empty": c.is_empty_polytope,
            "empty_simplex": c.is_empty_simplex,
            "hollow": c.is_hollow,
            "relatively_empty": c.is_relatively_empty,
        }
        report["lattice_points"] = p.n_lattice_points()
        report["interior_points"] = p.n_interior_points()
    if which("fine-interior") and p.dim() >= 1:
        fi = fine_interior(q)
        report["fine_interior"] = _fine_interior_section(fi)
        kappa = fi.kodaira_dimension
        report["kodaira_dimension"] = "-infinity" if kappa == float("-inf") else kappa
        report["general_type"] = kappa == p.dim() - 1
    if which("class-group") and p.dim() >= 1:
        g = class_group(q)
        report["class_group"] = {
            "free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors),
            **{f"ample_{k}": v for k, v in _class_element(g.ample_class()).items()},
        }
    if which("condition-m") and p.dim() >= 1:
        report["condition_m"] = _condition_m_section(check_condition_m(q))
    if which("hodge") and p.dim() >= 2:
        row = h_p0_compact(q)
        report["hodge_row"] = list(row.values)
        report["hodge_row_by_face_sum"] = list(row.by_face_sum)
    return report


COMPUTE_REPORTS = ("width", "classify", "fine-interior", "class-group", "condition-m", "hodge")


def cmd_compute(args):
    name, p = _load_polytope(args.input)
    chosen = [key for key in COMPUTE_REPORTS if getattr(args, key.replace("-", "_"))]
    if args.all or not chosen:
        which = lambda key: True
    else:
        which = lambda key: key in chosen
    _emit(_compute_report(name, p, which, args.max_points), args.output)
    return 0


def cmd_fine_interior(args):
    name, p = _load_polytope(args.input)
    q, _ = p.normalize_full_dimensional()
    fi = fine_interior(q)
    generators = [list(g) for g in fi.generators]
    _emit({"name": name, **_fine_interior_section(fi), "generators": generators}, args.output)
    return 0


def cmd_width(args):
    name, p = _load_polytope(args.input)
    w, cert = p.lattice_width()
    _emit({"name": name, "width": w, "certificate": list(cert)}, args.output)
    return 0


def cmd_condition_m(args):
    name, p = _load_polytope(args.input)
    q, _ = p.normalize_full_dimensional()
    rep = check_condition_m(q, mode=args.mode, budget=args.budget)
    rays = [list(u) for u in rep.group.fan.rays]
    _emit({"name": name, **_condition_m_section(rep), "rays": rays}, args.output)
    return 0


def cmd_class_group(args):
    name, p = _load_polytope(args.input)
    q, _ = p.normalize_full_dimensional()
    g = class_group(q)
    _emit(
        {
            "name": name,
            "free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors),
            "rays": [list(u) for u in g.fan.rays],
            "ray_degrees": [_class_element(g.ray_degree(i)) for i in range(g.fan.n_rays)],
            "ample": _class_element(g.ample_class()),
        },
        args.output,
    )
    return 0


def _subdivision_from_request(args):
    name, p = _load_polytope(args.input)
    q, chart = p.normalize_full_dimensional()
    if args.heights:
        doc = json.loads(_read_document(args.heights))
        heights = formats.heights_from_doc(doc)
    elif args.recipe == "trivial":
        heights = {x: Fraction(0) for x in q.lattice_points()}
    elif args.recipe == "distance":
        if not args.target:
            raise SbvolError("--recipe distance needs --target")
        _, target = _load_polytope(args.target)
        if target.ambient_dim != p.ambient_dim:
            raise DimensionMismatchError(f"--target must lie in Q^{p.ambient_dim}, as --input does")
        try:  # into q's chart, as dim4_pipeline does with its seed
            delta = hull([chart.to_chart(v) for v in target.vertices])
        except DegenerateInputError:
            raise DegenerateInputError("--target must lie in the affine span of --input") from None
        heights = distance_height(q, delta)
    else:
        raise SbvolError("provide --heights or --recipe trivial|distance")
    return name, q, regular_subdivision(q, heights)


def cmd_subdivide(args):
    name, q, s = _subdivision_from_request(args)
    rep = validate(s)
    doc = formats.subdivision_to_dict(s)
    doc["name"] = name
    doc["valid"] = rep.ok
    doc["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in rep.checks]
    _emit(doc, args.output)
    return 0


def cmd_ledger(args):
    name, q, s = _subdivision_from_request(args)
    seeds = builtin_seed_registry() if args.seeds == "builtin" else None
    led = volume_ledger(q, s, seeds)
    v = verdict(led)
    doc = formats.ledger_to_dict(led, v)
    doc["name"] = name
    _emit(doc, args.output)
    return 1 if args.expect_obstructed and v.status != "obstructed" else 0


def cmd_construct(args):
    try:
        params = [int(x) for x in args.args]
    except ValueError:
        raise SbvolError(f"--args takes integers, got {args.args}") from None
    if args.family == "simplex_product":
        if len(params) % 2 != 0:
            raise SbvolError("simplex_product takes pairs: d1 n1 d2 n2 ...")
        p = build(args.family, list(zip(params[::2], params[1::2])))
    else:
        p = build(args.family, *params)
    _emit(formats.polytope_to_dict(p, args.name or args.family), args.output)
    return 0


def cmd_bounds_table(args):
    rows, grid = bounds_table(range(args.n_min, args.n_max + 1), args.kind)
    if args.grid:
        lines = ["N\td\tstatus"]
        lines += [f"{n}\t{d}\t{status}" for n, d, status in grid]
        _write_text("\n".join(lines) + "\n", args.output)
        return 0
    doc = {
        "kind": args.kind,
        "rows": [
            {
                "n": r.n,
                "degree": r.degree,
                "N_min": r.n_min,
                "N_max_baseline": r.n_max_baseline,
                "N_max": r.n_max,
            }
            for r in rows
        ],
        "grid": [{"N": n, "d": d, "status": status} for n, d, status in grid],
    }
    _emit(doc, args.output)
    return 0


def cmd_verify_paper(args):
    results = run_all(only=args.only)
    if not results:
        print(f"no criterion matches {args.only!r}", file=sys.stderr)
        return 2
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s / {r.budget:.0f}s) {r.detail}")
        if not r.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 0 if failures == 0 else 1


def _budget(text):
    """A node budget flag's value: a non-negative int, checked at parse time (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative int, got {text!r}")
    return int(text)


EXIT_CODES = (
    "exit codes: 0 success; 1 verification failure (a failed criterion or "
    "--expect-obstructed not met); 2 usage or input error; 3 internal "
    "consistency error, a bug rather than bad input"
)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sbvol",
        description="Exact lattice-polytope invariants and obstruction ledgers",
        epilog=EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--input", required=True, help="polytope document (JSON)")
        sp.add_argument("--output", default=None, help="write the report here")

    sp = sub.add_parser("compute", help="invariant report for a polytope")
    add_io(sp)
    sp.add_argument("--all", action="store_true")
    for flag in COMPUTE_REPORTS:
        sp.add_argument(f"--{flag}", action="store_true")
    sp.add_argument("--max-points", type=_budget, default=None, help="lattice-point scan budget")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("fine-interior", help="the shifted-halfspace interior")
    add_io(sp)
    sp.set_defaults(fn=cmd_fine_interior)

    sp = sub.add_parser("width", help="exact lattice width with certificate")
    add_io(sp)
    sp.set_defaults(fn=cmd_width)

    sp = sub.add_parser("condition-m", help="monomial boundary cover check")
    add_io(sp)
    sp.add_argument("--mode", choices=("reduced", "unrestricted"), default="reduced")
    sp.add_argument("--budget", type=_budget, default=None, help="node budget of either mode's scan")
    sp.set_defaults(fn=cmd_condition_m)

    sp = sub.add_parser("class-group", help="divisor class group data")
    add_io(sp)
    sp.set_defaults(fn=cmd_class_group)

    sp = sub.add_parser("subdivide", help="regular subdivision from heights or a recipe")
    add_io(sp)
    sp.add_argument("--heights", default=None, help="height table document")
    sp.add_argument("--recipe", choices=("trivial", "distance"), default=None)
    sp.add_argument("--target", default=None, help="target polytope for distance heights")
    sp.set_defaults(fn=cmd_subdivide)

    sp = sub.add_parser("ledger", help="obstruction ledger of a subdivision")
    add_io(sp)
    sp.add_argument("--heights", default=None)
    sp.add_argument("--recipe", choices=("trivial", "distance"), default=None)
    sp.add_argument("--target", default=None)
    sp.add_argument("--seeds", choices=("none", "builtin"), default="builtin")
    sp.add_argument("--expect-obstructed", action="store_true")
    sp.set_defaults(fn=cmd_ledger)

    sp = sub.add_parser("construct", help="build a named polytope family member")
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument("--args", nargs="*", default=())
    sp.add_argument("--name", default=None)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("bounds-table", help="covered dimension ranges per degree")
    sp.add_argument("--kind", choices=("hypersurface", "double_cover"), default="hypersurface")
    sp.add_argument("--n-min", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--grid", action="store_true", help="emit the tab-separated grid")
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=cmd_bounds_table)

    sp = sub.add_parser("verify-paper", help="run the acceptance suite")
    sp.add_argument("--only", default=None, help="substring filter on criterion names")
    sp.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (SbvolError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
