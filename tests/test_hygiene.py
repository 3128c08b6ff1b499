"""Source hygiene: every name a library module imports is used in it, every
module it imports is in the standard library, every private function
or method is referenced somewhere in the library, every public one is
read outside the tests or named in an allow-list, the product routes
are chosen in one place, a precision trims sorted terms in one place,
the window rule of the law layer is read in one place, the law layer
builds one Taylor table per law, and only the sampled route cuts its sums
at a predicted law."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "apxval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(name, line) for each imported name the module never reads."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        out += [(name, node.lineno) for name in names if name not in used]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from .hahn import Series, SubfieldPredicate\n"
        "def f(x: Series) -> str:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("regex", 2), ("SubfieldPredicate", 3)]


def non_stdlib_imports(source):
    """(module, line) for each absolute import outside the standard
    library; relative imports are the package's own."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [
            (name, node.lineno)
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # pyproject.toml declares no dependencies
    assert non_stdlib_imports(path.read_text()) == []


def test_stdlib_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from decimal import Decimal\n"
        "from .hahn import Series\n"
        "from scipy.linalg import solve\n"
        "import xml.dom\n"
    )
    assert non_stdlib_imports(source) == [("numpy", 2), ("scipy.linalg", 5)]


def unreferenced_private_functions(sources):
    """(file, name, line) for each private module-level function or method
    of ``sources`` (file name -> source) that no source reads: as a name, an
    attribute or an imported name."""
    used, defs = set(), []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defs += [
                (path, d.name, d.lineno)
                for d in body
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and d.name.startswith("_")
                and not d.name.endswith("__")
            ]
    return [d for d in defs if d[1] not in used]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_check_flags_what_it_should():
    sources = {
        "a.py": (
            "def _dead(): pass\n"
            "def _live(): pass\n"
            "def _imported(): pass\n"
            "def public():\n"
            "    def _nested(): pass\n"
            "    return _live()\n"
            "class C:\n"
            "    def __repr__(self): return self._used()\n"
            "    def _used(self): pass\n"
            "    def _unused(self): pass\n"
        ),
        "b.py": "from .a import _imported\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a.py", "_dead", 1), ("a.py", "_unused", 10),
    ]


def unread_public_functions(library, readers, by_name=()):
    """(file, qualified name, line) for each public module-level function or
    method of ``library`` (file name -> source) that no code reads outside
    its own definition: neither in ``library`` nor in ``readers`` (more
    sources).  A function is read as a name or an attribute; a method only
    as an attribute (``x.name``) or by a name in ``by_name``, since a local
    variable of the same name does not reach it.  A mention in a docstring
    or a string is not a read."""

    def reads(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)
        )

    def attr_reads(node):
        return Counter(
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        )

    total, attrs, defs = Counter(), Counter(), []
    for source in [*library.values(), *readers]:
        tree = ast.parse(source)
        total += reads(tree)
        attrs += attr_reads(tree)
    for path, source in library.items():
        for node in ast.parse(source).body:
            method = isinstance(node, ast.ClassDef)
            prefix = f"{node.name}." if method else ""
            body = node.body if method else [node]
            defs += [
                (path, prefix + d.name, d, method)
                for d in body
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not d.name.startswith("_")
            ]
    unread = []
    for path, name, d, method in defs:
        if method:
            read = d.name in by_name or attrs[d.name] > attr_reads(d)[d.name]
        else:
            read = total[d.name] > reads(d)[d.name]
        if not read:
            unread.append((path, name, d.lineno))
    return unread


def traced_method_names():
    """The method names perfbench/tracer.py wraps by name, from its METHODS
    table: a traced run reaches them through ``getattr``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]
    )
    return {
        name
        for classes in ast.literal_eval(table).values()
        for names in classes.values()
        for name in names
    }


# public names only the tests read, each with the reason it stays
TEST_ONLY_NAMES = {
    "apprtype.py:ApproxType.same_type":
        "Kaplansky's equivalence of approximation types: v(x - x') >= dist",
    "apprtype.py:ApproxType.verify_not_fixed_for_minpoly":
        "checks a claimed minimal polynomial against the type's values",
    "hahn.py:truncate_to_subfield":
        "the ground truncation below a value, certified to lie in the ground",
    "reldeg.py:rel_degree_general":
        "the value law of any polynomial through its f-adic digits",
}


def test_every_public_function_is_read_outside_the_tests():
    # the library, the scripts, the benchmark and the acceptance criteria
    # read the public API; a name only the unit tests read is dead code
    # unless it is named, with its reason, in TEST_ONLY_NAMES
    library = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [
        p.read_text()
        for p in [
            *sorted((ROOT / "scripts").rglob("*.py")),
            *sorted((ROOT / "perfbench").rglob("*.py")),
            ROOT / "tests" / "test_acceptance.py",
        ]
    ]
    found = {
        f"{path}:{name}"
        for path, name, _ in unread_public_functions(
            library, readers, traced_method_names()
        )
    }
    assert found == set(TEST_ONLY_NAMES)


def test_unread_public_check_flags_what_it_should():
    library = {
        "a.py": (
            '"""Mentions mentioned() in a docstring."""\n'
            "def dead(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def mentioned(): return 'mentioned'\n"
            "def live(): pass\n"
            "def _private(): pass\n"
            "class C:\n"
            "    def used(self): return live()\n"
            "    def unused(self): pass\n"
            "    def __repr__(self): return self.used()\n"
            "def outside(): pass\n"
            "unused = 1\n"
            "class D:\n"
            "    def t(self): pass\n"
            "    def traced(self): pass\n"
        ),
        "b.py": "from .a import dead\n",
    }
    # a local variable named like a method does not read the method; a
    # name in ``by_name`` does
    readers = ["import a\na.outside()\ndef f(s):\n    t = s\n    return t\n"]
    assert unread_public_functions(library, readers, {"traced"}) == [
        ("a.py", "dead", 2), ("a.py", "recursive", 3), ("a.py", "mentioned", 5),
        ("a.py", "C.unused", 10), ("a.py", "D.t", 15),
    ]


ROUTES = ("_kronecker", "_pairwise")


def route_references(source):
    """(route, enclosing function, line) for each read of a product route
    in ``source``, as a name or an attribute; the enclosing function is the
    innermost one, None at module level."""
    out = []

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id in ROUTES:
                out.append((child.id, caller, child.lineno))
            elif isinstance(child, ast.Attribute) and child.attr in ROUTES:
                out.append((child.attr, caller, child.lineno))
            visit(child, caller)

    visit(ast.parse(source), None)
    return out


def test_product_routes_are_chosen_only_in_convolve():
    # ``*`` and ``dot`` reach the routes through ``_convolve``'s one rule
    refs = [
        (name, caller)
        for path in sorted(SRC.glob("*.py"))
        for name, caller, _ in route_references(path.read_text())
    ]
    assert sorted(refs) == [("_kronecker", "_convolve"), ("_pairwise", "_convolve")]


def test_route_reference_check_flags_what_it_should():
    source = (
        "def _convolve(pairs):\n"
        "    return _kronecker(pairs) or _pairwise(pairs)\n"
        "class Series:\n"
        "    def __mul__(self, other):\n"
        "        return _pairwise(((self, other),))\n"
        "fast = hahn._kronecker\n"
    )
    assert route_references(source) == [
        ("_kronecker", "_convolve", 2), ("_pairwise", "_convolve", 2),
        ("_pairwise", "__mul__", 5), ("_kronecker", None, 6),
    ]


def attribute_reads(source, attr):
    """(enclosing function, line) for each read of ``.attr`` in ``source``;
    the enclosing function is the innermost one, None at module level."""
    out = []

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == attr
                and isinstance(child.ctx, ast.Load)
            ):
                out.append((caller, child.lineno))
            visit(child, caller)

    visit(ast.parse(source), None)
    return out


def test_the_window_rule_is_read_in_one_function():
    # the fixed-value verdict and the Taylor intercepts share one rule for
    # "constant over the last ``window`` values"
    readers = {
        caller
        for name in ("apprtype.py", "reldeg.py")
        for caller, _ in attribute_reads((SRC / name).read_text(), "window")
    }
    assert len(readers) <= 1, sorted(readers)


def test_series_exponents_are_read_only_in_hahn_and_tamegal():
    # the stored exponent tuple has two reader modules, so a change of the
    # series representation knows every reader; the coefficient tuple's
    # name ``coeffs`` is shared with ValPoly's and not scanned
    readers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if attribute_reads(path.read_text(), "exps")
    }
    assert readers == {"hahn.py", "tamegal.py"}


def test_attribute_read_check_flags_what_it_should():
    source = (
        "class T:\n"
        "    def _rule(self, vals):\n"
        "        return vals[-self.window:]\n"
        "    def other(self, window):\n"
        "        self.window = window\n"
        "        return window + self.windows\n"
        "def f(A):\n"
        "    return A.window + A.tail_depth\n"
        "w = cfg.window\n"
    )
    assert attribute_reads(source, "window") == [
        ("_rule", 3), ("f", 8), (None, 9),
    ]


def calls_of(source, callee, passing=None):
    """(enclosing function, line) for each call of ``callee`` in
    ``source``, by name or attribute; the enclosing function is the
    innermost one, None at module level.  With ``passing`` a pair
    (parameter name, positional index), only the calls that pass that
    parameter, by keyword or at that position."""
    out = []

    def passes(call):
        if passing is None:
            return True
        name, index = passing
        return len(call.args) > index or any(k.arg == name for k in call.keywords)

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee and passes(child):
                    out.append((caller, child.lineno))
            visit(child, caller)

    visit(ast.parse(source), None)
    return out


def test_a_precision_trims_terms_only_in_below():
    # every trim goes through ``_below``; ``_coeff_at`` looks one term up
    callers = {
        caller
        for path in sorted(SRC.glob("*.py"))
        for caller, _ in calls_of(path.read_text(), "bisect_left")
    }
    assert sorted(callers) == ["_below", "_coeff_at"]


def test_exponent_bisection_check_flags_what_it_should():
    source = (
        "def _below(exps, coeffs, cut):\n"
        "    n = bisect_left(exps, cut)\n"
        "class Series:\n"
        "    def truncate(self, cut):\n"
        "        i = bisect.bisect_left(self.exps, cut)\n"
        "        j = bisect_right(self.exps, cut)\n"
        "        return self.exps.index(cut)\n"
        "k = bisect_left(exps, 0)\n"
    )
    assert calls_of(source, "bisect_left") == [
        ("_below", 2), ("truncate", 5), (None, 8),
    ]


def test_one_taylor_table_per_law():
    # the envelope route's tables are built in taylor_intercepts and handed
    # on in RelDegree.rows; only a shape at an arbitrary c and the Taylor
    # identity check build their own, and no law function forms a
    # derivative polynomial or reads the type's power lists
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tables = {
        (name, caller)
        for name, source in sources.items()
        for caller, _ in calls_of(source, "taylor_coefficients")
    }
    assert tables == {
        ("apprtype.py", "taylor_intercepts"),
        ("reldeg.py", "reduced_factor_shape"),
        ("valpoly.py", "taylor_check"),
    }
    for name in ("apprtype.py", "reldeg.py"):
        assert calls_of(sources[name], "formal_derivative") == []
    readers = {
        caller
        for source in sources.values()
        for caller, _ in attribute_reads(source, "_powers")
    }
    assert readers == {"taylor_intercepts"}


def test_call_check_flags_what_it_should():
    source = (
        "from .valpoly import taylor_coefficients\n"
        "def taylor_intercepts(self, g):\n"
        "    return [taylor_coefficients(g, c) for c in self.cs]\n"
        "def shape(A, f, c):\n"
        "    def rows():\n"
        "        return valpoly.taylor_coefficients(f, c)\n"
        "    table = taylor_coefficients\n"
        "    return rows(), table(f, c), 'taylor_coefficients(f, c)'\n"
        "first = taylor_coefficients(f, c)[0]\n"
    )
    # a call through another name and a mention in a string are not seen
    assert calls_of(source, "taylor_coefficients") == [
        ("taylor_intercepts", 3), ("rows", 6), (None, 9),
    ]


# (callee, parameter, positional index): the parameters that let the
# sampled route stop its sums at the values it looks for
LAW_CUTS = (
    ("power_sum", "through", 3),
    ("dot", "through", 2),
    ("sampled_law", "law", 3),
    ("_tail_values", "law", 3),
)


def test_only_the_sampled_route_cuts_its_sums():
    # rel_degree alone hands the envelope's law to the sampled route and
    # _tail_values alone cuts a power sum by it; sampled_law and power_sum
    # only pass it on.  Every other sum (the push-forward, ValPoly.__call__,
    # the fixed-value verdict) stays whole
    found = {
        (callee, caller)
        for path in sorted(SRC.glob("*.py"))
        for callee, name, index in LAW_CUTS
        for caller, _ in calls_of(path.read_text(), callee, (name, index))
    }
    assert found == {
        ("sampled_law", "rel_degree"),
        ("_tail_values", "sampled_law"),
        ("power_sum", "_tail_values"),
        ("dot", "power_sum"),
    }


def test_passing_check_flags_what_it_should():
    source = (
        "def _tail_values(A, f, above=None, law=None):\n"
        "    a = power_sum(f, x, {}, through=w)\n"
        "    b = valpoly.power_sum(f, x, {}, w)\n"
        "    return power_sum(f, x, {}), power_sum(f, x, powers=p)\n"
        "def pushed_forward(A, f):\n"
        "    kw = {'through': 0}\n"
        "    return power_sum(f, x, {}, **kw), power_sum(*args)\n"
        "c = power_sum(f, x, {}, None, through=0)\n"
    )
    # a splat hides what it passes
    assert calls_of(source, "power_sum", ("through", 3)) == [
        ("_tail_values", 2), ("_tail_values", 3), (None, 8),
    ]


def unused_locals(source):
    """(function, name, line) for each name a function assigns in its own
    body and never reads, ``_`` exempt; a read in a nested function or a
    comprehension counts."""
    out = []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

    def own_stores(node, found):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scopes):
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                found.setdefault(child.id, child.lineno)
            own_stores(child, found)
        return found

    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = {
            n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        out += [
            (fn.name, name, line)
            for name, line in own_stores(fn, {}).items()
            if name != "_" and name not in reads
        ]
    return sorted(out, key=lambda d: d[2])


def test_every_local_is_read():
    found = [
        (path.name, *d)
        for path in sorted(SRC.glob("*.py"))
        for d in unused_locals(path.read_text())
    ]
    assert found == []


def test_unused_local_check_flags_what_it_should():
    source = (
        "def f(xs):\n"
        "    total = 0\n"
        "    rd = g(xs)\n"
        "    for _, x in xs:\n"
        "        total += x\n"
        "    def inner():\n"
        "        kept = 1\n"
        "        return total + kept\n"
        "    (a, b), c = xs\n"
        "    return inner() + a + [y for y, z in xs]\n"
    )
    assert unused_locals(source) == [
        ("f", "rd", 3), ("f", "b", 9), ("f", "c", 9), ("f", "z", 10),
    ]


def prints_outside(source, allowed):
    """(enclosing top-level function, line) for each ``print`` call in
    ``source`` outside the functions named in ``allowed``; None at module
    level."""
    out = []
    for node in ast.parse(source).body:
        caller = node.name if isinstance(node, ast.FunctionDef) else None
        if caller in allowed:
            continue
        out += [
            (caller, n.lineno)
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "print"
        ]
    return out


def test_only_main_and_the_corpus_stream_print():
    # every other command returns its payload and its text line to main
    source = (SRC / "cli.py").read_text()
    assert prints_outside(source, {"main", "cmd_corpus"}) == []


def test_print_check_flags_what_it_should():
    source = (
        "def main():\n"
        "    print('ok')\n"
        "def cmd_eval(args):\n"
        "    def show(x):\n"
        "        print(x)\n"
        "    sys.stdout.write('not a print call')\n"
        "    return show\n"
        "print('module')\n"
    )
    assert prints_outside(source, {"main"}) == [("cmd_eval", 5), (None, 8)]
