"""Every public definition of the package is read, or is listed here with a reason.

The definitions are the public top-level functions and classes and the
public methods, properties and annotated fields of public classes.  Product
code is src/sbvol (outside the definition itself), demos/ and bench/.  A
top-level definition is reached when product code names it: as a name, or
as an attribute such as `toric.fine_interior`.  A method, property or field
is reached only when product code reads it as an attribute, such as
`fi.kodaira_dimension` or `self.rho`; a bare local name that happens to
match does not count, a method's own body does not count, and a field's
own declaration does not count.  Imports, strings and tests do not count.
An attribute read of the same name on something else counts as reached, so
the scan can miss an unread definition but never invents one.  A new
definition that nothing reads fails here until it gets a reader, leaves the
package, or joins the list with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    "polytope.convex_union": "exported by sbvol/__init__.py",
    "polytope.translate": "exported by sbvol/__init__.py",
    "errors.UnsupportedInputError": "part of the error hierarchy; the Hilbert-basis test oracle raises it",
    "subdivision.make_subdivision": "builds a subdivision from hand-chosen cells, which validate's tests need",
    "hodge.e_p0_open": "the face-count oracle pins the open invariant degree by degree",
    "intlinalg.solve_rational": "bench/tracing.py counts its calls, and tests/test_trace_targets.py pins that",
    "polytope.LatticePolytope.as_halfspaces": "the frozen pairwise_validate oracle calls it",
    "subdivision.Subdivision.height_map": "only tests read the heights back as a dict",
    "intlinalg.SmithDecomposition.v": "part of U A V = S, which smith_form checks; the elimination oracle compares it",
    "ledger.SeedEntry.reason": "the bench and builtin_seed_registry pass the reason to register",
    "polytope.LatticePolytope.faces": "bench/tracing.py spans it by name",
}


def _sources():
    """(module name, syntax tree, is package code) of every product file."""
    package = sorted((ROOT / "src" / "sbvol").glob("*.py"))
    scripts = [p for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    return [(p.stem, ast.parse(p.read_text()), p in package) for p in package + scripts]


def _defined(node):
    """The name that a def, a class or an annotated field `name: type` defines, else None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _definitions(sources):
    """(dotted name, name, is a class member) of each public definition."""
    out = set()
    for module, tree, in_package in sources:
        if not in_package:
            continue
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name[0] == "_":
                continue
            out.add((f"{module}.{top.name}", top.name, False))
            if isinstance(top, ast.ClassDef):
                members = {_defined(n) for n in top.body} - {None}
                out |= {(f"{module}.{top.name}.{m}", m, True) for m in members if m[0] != "_"}
    return out


def _reads(sources):
    """(bare names, attributes read) in product code, outside the definition each would name."""
    names, attributes = set(), set()
    for _, tree, in_package in sources:
        for top in tree.body:
            own = {_defined(top)} if in_package else set()
            units = [(top, own)]
            if in_package and isinstance(top, ast.ClassDef):
                # A member's own body or declaration does not reach it; the rest of its class does.
                units = [(n, own) for n in top.decorator_list + top.bases + top.keywords]
                units += [(n, own | {_defined(n)}) for n in top.body]
            for unit, skip in units:
                for node in ast.walk(unit):
                    if isinstance(node, ast.Name) and node.id not in skip:
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        if node.attr not in skip:
                            attributes.add(node.attr)
    return names, attributes


def _unreached(sources):
    names, attributes = _reads(sources)
    return {
        dotted
        for dotted, name, member in _definitions(sources)
        if name not in (attributes if member else names | attributes)
    }


def test_every_public_definition_is_reached_or_listed():
    assert _unreached(_sources()) == set(UNREACHED)


def test_the_scan_sees_fields_and_counts_only_attribute_reads():
    package = ast.parse(
        "@dataclass\n"
        "class C:\n"
        "    read: int\n"
        "    unread: int\n"
        "    def m(self):\n"
        "        return self.read\n"
        "    def n(self):\n"
        "        return self.n()\n"
        "def f(c):\n"
        "    unread, m = 1, 2\n"
        "    return c.m(), unread, m\n"
    )
    demo = ast.parse("from mod import C, f\nf(C(read=1, unread=2))\n")
    sources = [("mod", package, True), ("demo", demo, False)]
    assert _unreached(sources) == {"mod.C.unread", "mod.C.n"}
