import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sbvol.errors import DegenerateInputError
from sbvol.intlinalg import (
    adjugate,
    det,
    hermite_form,
    identity_matrix,
    integer_kernel,
    invert_unimodular,
    mat_mul,
    rank,
    smith_form,
    solve_rational,
)


def naive_upper_triangularize(a):
    """Independent Euclidean row reduction; returns the echelon matrix only."""
    m = [list(r) for r in a]
    rows = len(m)
    cols = len(m[0])
    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, rows) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][c] != 0:
                    done = False
            if done:
                break
        if r < rows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            r += 1
    return m


def test_hermite_identity():
    h, u = hermite_form(identity_matrix(3))
    assert h == identity_matrix(3)
    assert u == identity_matrix(3)


def test_hermite_zero():
    h, u = hermite_form([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]
    assert u == identity_matrix(2)


def test_hermite_2x4_against_row_reduction_oracle():
    a = [[2, 4], [6, 8]]
    h, u = hermite_form(a)
    assert mat_mul(u, a) == h
    assert abs(det(u)) == 1
    assert h[0][0] == 2 and h[1][0] == 0  # upper triangular with pivot 2
    oracle = naive_upper_triangularize(a)
    # same pivots up to the above-pivot reduction
    assert [h[i][i] for i in range(2)] == [oracle[i][i] for i in range(2)]


def test_hermite_idempotent():
    rng = random.Random(1)
    for _ in range(25):
        a = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(4)]
        h, _ = hermite_form(a)
        h2, u2 = hermite_form(h)
        assert h2 == h
        assert u2 == identity_matrix(4)


def test_smith_diag_2_3():
    sd = smith_form([[2, 0], [0, 3]])
    assert sd.invariant_factors == (1, 6)
    # brute-force oracle over small unimodular transforms: gcd of entries is
    # the first factor, |det| the product
    assert sd.invariant_factors[0] == 1
    assert sd.invariant_factors[0] * sd.invariant_factors[1] == 6


def test_smith_identity():
    sd = smith_form(identity_matrix(4))
    assert sd.invariant_factors == (1, 1, 1, 1)


def test_smith_2x2():
    a = [[2, 4], [6, 8]]
    sd = smith_form(a)
    assert sd.invariant_factors == (2, 4)
    assert mat_mul(mat_mul([list(r) for r in sd.u], a), [list(r) for r in sd.v]) == [
        list(r) for r in sd.s
    ]


def test_smith_random_exact():
    rng = random.Random(2)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        sd = smith_form(a)
        u = [list(r) for r in sd.u]
        v = [list(r) for r in sd.v]
        assert mat_mul(mat_mul(u, a), v) == [list(r) for r in sd.s]
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        f = sd.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
        assert all(x > 0 for x in f)


def test_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        ours = [int(x) for x in smith_form(a).invariant_factors]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(a)) if x != 0]
        assert ours == theirs


def test_kernel_rank_counts():
    basis = integer_kernel([[1, 1, 1]])
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0


def test_kernel_invertible_empty():
    assert integer_kernel([[2, 1], [1, 1]]) == []


def test_kernel_saturated():
    assert integer_kernel([[2, -2]]) == [(1, 1)]


def test_kernel_basis_is_lattice_basis():
    # HNF of the kernel basis has unimodular pivot block (saturation)
    basis = integer_kernel([[2, 3, 5], [1, 1, 1]])
    assert len(basis) == 1
    from math import gcd

    g = 0
    for x in basis[0]:
        g = gcd(g, abs(x))
    assert g == 1


def test_rank_and_det():
    assert rank([[1, 2], [2, 4]]) == 1
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[0, 1], [1, 0]]) == -1


def test_invert_unimodular():
    u = [[1, 2], [0, 1]]
    ui = invert_unimodular(u)
    assert mat_mul(u, ui) == identity_matrix(2)
    with pytest.raises(DegenerateInputError):
        invert_unimodular([[2, 0], [0, 1]])


def test_invert_unimodular_matches_the_hermite_transform():
    # a unimodular matrix has Hermite form I, and its transform is the inverse
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 5)
        u = identity_matrix(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            f = rng.choice([-2, -1, 1, 2])
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.5:
            u[0] = [-x for x in u[0]]
        h, hermite_inverse = hermite_form(u)
        assert h == identity_matrix(n)
        assert invert_unimodular(u) == hermite_inverse


@pytest.mark.parametrize(
    "a", [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[2, 1], [1, 2]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]]
)
def test_invert_unimodular_rejects_singular_non_unimodular_and_non_square(a):
    with pytest.raises(DegenerateInputError, match="^matrix is not unimodular$"):
        invert_unimodular(a)


def test_unimodularity_check_survives_optimize():
    # python -O strips assert statements; the input check must still raise.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from sbvol.errors import DegenerateInputError\n"
        "from sbvol.intlinalg import invert_unimodular\n"
        "try:\n"
        "    invert_unimodular([[2, 0], [0, 1]])\n"
        "except DegenerateInputError:\n"
        "    print('raised')\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "raised"


def test_package_has_no_assert_statements():
    # Checks that back a result must survive python -O, which strips asserts.
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _float_uses(tree):
    """(owner, what) for each float literal or float( call; owner is the top-level def or name."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            owner = stmt.name
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            owner = stmt.targets[0].id
        else:
            owner = None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                out.append((owner, "literal"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                args = [a.value for a in node.args if isinstance(a, ast.Constant)]
                out.append((owner, f"float({args[0]!r})" if args else "float(...)"))
    return out


def test_package_has_no_floats_in_the_math_path():
    # Exactness: every computation is int or Fraction.  The only floats are
    # Kodaira dimension -inf (returned and compared) and the time budgets
    # of the acceptance criteria.
    allowed = {
        ("toric.py", "FineInteriorResult", "float('-inf')"),
        ("cli.py", "_compute_report", "float('-inf')"),
        ("verification.py", "ALL_CRITERIA", "literal"),
    }
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    found = [
        (path.name, owner, what)
        for path in sorted(package.glob("*.py"))
        for owner, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [f for f in found if f not in allowed] == []
    # the guard sees floats at all: both spellings are caught
    assert _float_uses(ast.parse("def f():\n    return float(1) + 0.5\n")) == [("f", "float(1)"), ("f", "literal")]


def _input_rules(tree):
    """(owner, rule) for each int, bool or integral-rational test; owner is the top-level def or name."""
    out = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare):
                left, op, right = node.left, node.ops[0], node.comparators[0]
                if (
                    isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "type"
                    and isinstance(op, (ast.Is, ast.IsNot))
                    and isinstance(right, ast.Name)
                    and right.id == "int"
                ):
                    out.append((owner, "type is int"))
                elif (
                    isinstance(left, ast.Attribute)
                    and left.attr == "denominator"
                    and isinstance(op, ast.NotEq)
                    and isinstance(right, ast.Constant)
                    and right.value == 1
                ):
                    out.append((owner, "denominator != 1"))
                elif any(
                    isinstance(side, ast.Set) and any(isinstance(e, ast.Name) and e.id == "int" for e in side.elts)
                    for side in (left, *node.comparators)
                ):
                    out.append((owner, "type set"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    out.append((owner, "isinstance bool"))
    return out


def test_input_rules_are_spelled_only_in_the_polytope_helpers():
    # One place for input checks: every other module calls _int_in, _rational,
    # _as_int_tuple or _is_rational instead of testing for int, bool or an
    # integral denominator itself.  The one exception is the kernel under
    # polytope: adjugate checks all its entries in one pass over their types.
    allowed = {
        ("polytope.py", "_is_rational", "isinstance bool"),
        ("polytope.py", "_int_in", "type is int"),
        ("polytope.py", "_as_int_tuple", "denominator != 1"),
        ("intlinalg.py", "adjugate", "type set"),
    }
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    found = [
        (path.name, owner, rule)
        for path in sorted(package.glob("*.py"))
        for owner, rule in _input_rules(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [f for f in found if f not in allowed] == []
    # the guard sees each spelling, in a def and in a class
    code = (
        "def f(x):\n    return type(x) is not int or isinstance(x, (int, bool))\n"
        "class C:\n    def g(self, x):\n        return type(x) is int or x.denominator != 1\n"
        "def h(a):\n    return {type(x) for x in a} <= {int}\n"
    )
    assert _input_rules(ast.parse(code)) == [
        ("f", "type is int"),
        ("f", "isinstance bool"),
        ("C", "type is int"),
        ("C", "denominator != 1"),
        ("h", "type set"),
    ]

def _unused_imports(tree):
    """Names bound by an import statement and never read elsewhere in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    # the guard sees an import left without a use, by name or alias
    code = "from math import ceil, floor\nimport itertools as it\nfrom .errors import E\nfloor(E)\n"
    assert _unused_imports(ast.parse(code)) == [(1, "ceil"), (2, "it")]


def _function_local_imports(tree):
    """(line, innermost function) of every import statement inside a function body."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found[inner.lineno] = node.name
    return sorted(found.items())


def test_package_has_no_function_local_imports():
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    found = [
        f"{path.name}:{line} in {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _function_local_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    # the guard sees imports in functions, nested functions and methods, not at module level
    code = (
        "import os\n"
        "def f():\n    from math import floor\n    def g():\n        import re\n    return floor\n"
        "class A:\n    def m(self):\n        import json\n"
    )
    assert _function_local_imports(ast.parse(code)) == [(3, "f"), (5, "g"), (9, "m")]


def _private_definitions(tree):
    """(line, name) of single-underscore top-level functions and classes, and methods."""
    nodes = list(tree.body)
    nodes += [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
    return [
        (node.lineno, node.name)
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _unused_private_definitions(trees):
    """Private definitions of the modules that no name or attribute anywhere reads."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in used
    ]


def test_package_has_no_unused_private_definitions():
    package = Path(__file__).resolve().parents[1] / "src" / "sbvol"
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert sum(len(_private_definitions(t)) for t in trees.values()) > 0
    assert _unused_private_definitions(trees) == []
    # the guard sees a private function and a private method that nothing calls
    code = (
        "def _used():\n    pass\n"
        "def _left():\n    pass\n"
        "class A:\n    def _stale(self):\n        pass\n"
        "    def __init__(self):\n        _used()\n"
    )
    assert _unused_private_definitions({"m.py": ast.parse(code)}) == ["m.py:3 _left", "m.py:6 _stale"]


def test_adjugate_against_unit_vector_solves():
    rng = random.Random(17)
    tried = 0
    while tried < 150:
        n = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if det(a) == 0:
            continue
        tried += 1
        # Oracle: row i of a^{-1} solves a^T x = e_i, one solve per unit vector.
        a_t = [list(col) for col in zip(*a)]
        oracle = [list(solve_rational(a_t, [1 if j == i else 0 for j in range(n)])) for i in range(n)]
        d, adj = adjugate(a)
        assert d == det(a)
        assert [[Fraction(x, d) for x in row] for row in adj] == oracle
        assert all(type(x) is int for row in adj for x in row)
        assert mat_mul(adj, a) == [[d * x for x in row] for row in identity_matrix(n)]


def test_adjugate_rejects_singular():
    rng = random.Random(18)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        row = [0] * n
        for r in a:  # the last row is a combination of the others
            c = rng.randint(-2, 2)
            row = [x + c * y for x, y in zip(row, r)]
        a.insert(rng.randint(0, n - 1), row)
        with pytest.raises(DegenerateInputError):
            adjugate(a)


def test_solve_rational_inconsistent():
    assert solve_rational([[1, 1], [1, 1]], [1, 2]) is None
