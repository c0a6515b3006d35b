"""Every public definition of the package is reached, or is listed here with a reason.

The definitions are the public top-level functions and classes and the
public methods and properties of public classes.  A definition is reached
when code in src/sbvol (outside the definition itself), demos/ or bench/
names it: as a name, or as an attribute such as `toric.fine_interior` or
`fi.kodaira_dimension`; a method's own body does not count.  Imports,
strings and tests do not count.  A name that is also an attribute of
something else counts as reached, so the scan can miss an unreached
definition but never invents one.  A new definition that nothing reaches fails here until it
gets a caller, leaves the package, or joins the list with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    "polytope.convex_union": "exported by sbvol/__init__.py",
    "polytope.translate": "exported by sbvol/__init__.py",
    "errors.UnsupportedInputError": "part of the error hierarchy; the Hilbert-basis test oracle raises it",
    "formats.dump_polytope": "the writer that pairs with load_polytope; the CLI tests write their fixtures with it",
    "subdivision.make_subdivision": "builds a subdivision from hand-chosen cells, which validate's tests need",
    "hodge.e_p0_open": "the face-count oracle pins the open invariant degree by degree",
    "intlinalg.solve_rational": "bench/tracing.py counts its calls, and tests/test_trace_targets.py pins that",
    "polytope.LatticePolytope.as_halfspaces": "the frozen pairwise_validate oracle calls it",
    "polytope.LatticePolytope.volume": "the Euclidean volume; only tests read it",
    "subdivision.Subdivision.height_map": "only tests read the heights back as a dict",
}


def _public(nodes):
    return [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name[0] != "_"]


def _definitions():
    """(dotted name, name) of each public top-level def or class and each public method of one."""
    out = set()
    for path in sorted((ROOT / "src" / "sbvol").glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body):
            out.add((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out |= {(f"{path.stem}.{node.name}.{m.name}", m.name) for m in _public(node.body)}
    return out


def _named():
    """Every name that code in src/sbvol, outside the definition it names, demos/ or bench/ uses."""
    out = set()
    files = [(p, True) for p in sorted((ROOT / "src" / "sbvol").glob("*.py"))]
    files += [(p, False) for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    for path, in_package in files:
        for top in ast.parse(path.read_text()).body:
            own = {getattr(top, "name", None)} if in_package else set()
            units = [(top, own)]
            if in_package and isinstance(top, ast.ClassDef):
                # A method's own body does not reach it; the rest of its class does.
                units = [(n, own) for n in top.decorator_list + top.bases + top.keywords]
                units += [(n, own | {getattr(n, "name", None)}) for n in top.body]
            for unit, skip in units:
                for node in ast.walk(unit):
                    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if name is not None and name not in skip:
                        out.add(name)
    return out


def test_every_public_definition_is_reached_or_listed():
    named = _named()
    unreached = {dotted for dotted, name in _definitions() if name not in named}
    assert unreached == set(UNREACHED)
