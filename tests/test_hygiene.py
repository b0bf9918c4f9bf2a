"""Static checks on the package source that need no linter."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "charpos").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression reads.

    A name listed in a literal __all__ counts as read, so re-exports pass.
    Docstrings and comments do not count.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detector_flags_a_name_read_only_in_a_docstring():
    tree = ast.parse('from m import BLOCK, used\n'
                     'def f():\n    """Slabs of BLOCK entries."""\n'
                     '    return used\n')
    assert unused_imports(tree) == ["BLOCK (line 1)"]


def reads(nodes) -> set[str]:
    """The names the trees under nodes read.

    A read is a name loaded in an expression, or an attribute of that
    name (ntcore._TABLE_MAX); a definition, an assignment, an import, a
    docstring and a comment are not reads.
    """
    read = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_privates(trees: dict[str, ast.Module]) -> list[str]:
    """"module.name" for each module-level _private function, class or
    constant that none of the modules reads (see reads)."""
    read = reads(trees.values())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_no_unread_private_names():
    # a private helper or constant that src no longer reads is dead code,
    # even when a test still reaches it
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert unread_privates(trees) == []


def test_unread_privates_detector_flags_names_read_by_nothing():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_SPARE = 4\nclass _Buf:\n    pass\n"
                       "def _used():\n    \"\"\"Not _SPARE nor _Buf.\"\"\"\n"
                       "    return _LIMIT\n"),
        "b": ast.parse("from . import a\nfrom .a import _Buf\n"
                       "def f():\n    return a._used()\n"),
    }
    assert unread_privates(trees) == ["a._Buf", "a._SPARE"]


def unread_publics(trees: dict[str, ast.Module],
                   skip=("cli", "errors")) -> list[str]:
    """"module.name" for each module-level public function of a module
    outside skip that no other module reads (see reads) and its own module
    reads only inside its own definition.  An import is not a read, so a
    re-export from __init__ does not count."""
    unread = []
    for module, tree in trees.items():
        if module in skip:
            continue
        others = reads(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and node.name not in others
                    and node.name not in reads(n for n in tree.body if n is not node)):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_unread_public_functions_are_pinned():
    # public functions that no code in src calls; each stays on purpose,
    # and a new one joins this list only with its reason
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert unread_publics(trees) == [
        # public API (re-exported by charpos), kept for library users;
        # lattice_quad_values and scan_prime_fracs are perfbench trace
        # targets too, and check_positivity its scan oracle
        "charsum.quarter_margin",
        "fq.fifth_alpha_lower_bound", "fq.fq_fifth", "fq.fq_lattice_quad",
        "fq.fq_series", "fq.fq_third", "fq.lattice_quad_values",
        "fq.piecewise_fq",
        "liouville.f_lower_bound",
        # perfbench trace target and the tests' plain oracle for
        # prefix_sums; it leaves with its TARGETS entry
        "ntcore.chi_sieve",
        "verify.check_positivity", "verify.merge_certificates",
        "verify.scan_prime_fracs",
    ]


def test_unread_publics_detector_ignores_imports_and_self_reads():
    trees = {
        "__init__": ast.parse("from .a import spare, used\n"
                              "__all__ = ['spare', 'used']\n"),
        "a": ast.parse("def spare(n):\n    return spare(n - 1)\n"
                       "def used():\n    return 1\n"
                       "def helper():\n    \"\"\"Not spare.\"\"\"\n"
                       "    return 2\n"
                       "X = helper()\n"),
        "b": ast.parse("from .a import used\n"
                       "def main():\n    return used()\n"),
        "cli": ast.parse("def cmd():\n    return 0\n"),
    }
    assert unread_publics(trees) == ["a.spare", "b.main"]


def cross_module_privates(trees: dict[str, ast.Module]) -> list[str]:
    """"reader←module._name" for each _private name a module takes from
    another: imported by name (from .m import _name), or read as an
    attribute of a module it imported (from . import m, then m._name)."""
    found = set()
    for module, tree in trees.items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        bound[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_") and not alias.name.startswith("__"):
                        found.add(f"{module}←{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                found.add(f"{module}←{bound[node.value.id]}.{node.attr}")
    return sorted(found)


def test_cross_module_privates_are_pinned():
    # private names one module of src takes from another; each crossing
    # is on purpose, and a new one joins this list only with its reason
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert cross_module_privates(trees) == [
        "fq←charsum._block_moments",  # h and block sums of W off one table
        # h of each census modulus from its half table's two end sums
        "fq←charsum._checked_class_number",
        # P1(q-1) of the lattice kernel, and B(a) of a single node and of f_q(a/p)
        "fq←charsum._linear_sum",
        "fq←charsum._low_spans",  # fq_min_and_zeros walks the W spans
        "fq←charsum._span_min",  # fq_min_and_zeros's minimum per span
        # f_series shares the sine kernel of fq_series, so the two agree
        # bitwise wherever lambda and chi agree
        "liouville←fq._sin_sum",
        "verify←charsum._margin_min",  # the scan's kernel per modulus
        "verify←charsum._margins",  # a certificate's margins
        "verify←fq._prime_frac_stats",  # the census's stats per group
        "verify←ntcore._check_table",  # the gate, before primes are sieved
    ]


def test_cross_module_privates_detector():
    trees = {
        "a": ast.parse("_LIMIT = 3\ndef _x():\n    return _LIMIT\n"),
        "b": ast.parse("from . import a\nfrom . import a as alias\n"
                       "from .a import _x, y\nfrom .c import __version__\n"
                       "def f():\n    \"\"\"Not a._HIDDEN.\"\"\"\n"
                       "    return a._LIMIT + alias._y + a.__doc__ + a.public + _x()\n"),
    }
    assert cross_module_privates(trees) == ["b←a._LIMIT", "b←a._x", "b←a._y"]


def quadchar_builders(trees: dict[str, ast.Module]) -> list[str]:
    """"module.name" of each module-level function or class, or "module"
    for module-level code, that calls QuadChar(...): by name, by an alias
    it was imported under, or as an attribute (ntcore.QuadChar(...))."""
    found = set()
    for module, tree in trees.items():
        names = {"QuadChar"} | {alias.asname for node in ast.walk(tree)
                                if isinstance(node, ast.ImportFrom)
                                for alias in node.names
                                if alias.name == "QuadChar" and alias.asname}
        for top in tree.body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) in names
                        or getattr(node.func, "attr", None) == "QuadChar"):
                    found.add(f"{module}.{where}" if where else module)
    return sorted(found)


def test_quadchar_is_built_only_by_quad_char():
    # quad_char validates a modulus once and settles its factors, and
    # everything downstream trusts them (a prime q has factors == (q,));
    # a QuadChar built anywhere else would carry factors nothing checked
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert quadchar_builders(trees) == ["ntcore.quad_char"]


def test_quadchar_builders_detector():
    trees = {
        "ntcore": ast.parse("class QuadChar:\n    pass\n"
                            "def quad_char(q):\n    return QuadChar(q, (q,))\n"
                            "def other(q):\n    return [QuadChar(q, ())]\n"),
        "b": ast.parse("from . import ntcore\n"
                       "from .ntcore import QuadChar, QuadChar as QC\n"
                       "CH = QC(7, (7,))\n"
                       "def f(q):\n    \"\"\"Not QuadChar(q).\"\"\"\n"
                       "    return ntcore.QuadChar(q, (q,)), QuadChar\n"
                       "def g(ch: QuadChar):\n    return isinstance(ch, QuadChar)\n"),
    }
    assert quadchar_builders(trees) == ["b", "b.f", "ntcore.other",
                                        "ntcore.quad_char"]


def looped_sieve_callers(trees: dict[str, ast.Module]) -> list[str]:
    """"module.name" of each module-level function or class, or "module"
    for module-level code, that calls primes_in_range (by name, by an
    alias it was imported under, or as an attribute) inside the body of a
    for or while loop, in a while test, or in a comprehension's element or
    condition: anywhere one call may sieve window after window.  The
    iterable of a for is evaluated once and does not count."""
    found = set()
    for module, tree in trees.items():
        names = {"primes_in_range"} | {alias.asname for node in ast.walk(tree)
                                       if isinstance(node, ast.ImportFrom)
                                       for alias in node.names
                                       if alias.name == "primes_in_range"
                                       and alias.asname}
        for top in tree.body:
            where = getattr(top, "name", None)
            for loop in ast.walk(top):
                if isinstance(loop, (ast.For, ast.AsyncFor)):
                    parts = loop.body + loop.orelse
                elif isinstance(loop, ast.While):
                    parts = [loop.test] + loop.body + loop.orelse
                elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                       ast.DictComp)):
                    parts = [getattr(loop, f) for f in ("elt", "key", "value")
                             if hasattr(loop, f)]
                    parts += [c for g in loop.generators for c in g.ifs]
                else:
                    continue
                for node in (n for part in parts for n in ast.walk(part)):
                    if isinstance(node, ast.Call) and (
                            getattr(node.func, "id", None) in names
                            or getattr(node.func, "attr", None) == "primes_in_range"):
                        found.add(f"{module}.{where}" if where else module)
    return sorted(found)


def test_primes_upward_is_the_one_prime_walk():
    # primes_upward holds the window policy of every walk up through the
    # primes; a loop elsewhere that sieves window after window keeps a
    # policy of its own, and may hold far more than one window
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert looped_sieve_callers(trees) == ["ntcore.primes_upward"]


def test_looped_sieve_callers_detector():
    trees = {
        "a": ast.parse("from . import ntcore\n"
                       "from .ntcore import primes_in_range, primes_in_range as pir\n"
                       "def once(n):\n    return primes_in_range(2, n)\n"
                       "def whole(n):\n"
                       "    for p in primes_in_range(2, n):\n        yield p\n"
                       "def windows(n):\n"
                       "    for lo in range(2, n, 8):\n"
                       "        yield from pir(lo, lo + 7)\n"
                       "def until(n):\n"
                       "    while not ntcore.primes_in_range(2, n).size:\n"
                       "        n *= 2\n"
                       "def nested(n):\n"
                       "    def inner():\n"
                       "        return [primes_in_range(k, k) for k in range(n)]\n"
                       "    return inner\n"
                       "def keyed(n):\n"
                       "    \"\"\"Not primes_in_range in a loop.\"\"\"\n"
                       "    return {k: ntcore.primes_in_range(k, k) for k in range(n)}\n"
                       "for m in range(3):\n    primes_in_range(2, m)\n"),
    }
    assert looped_sieve_callers(trees) == ["a", "a.keyed", "a.nested",
                                           "a.until", "a.windows"]


def module_state(trees: dict[str, ast.Module]) -> list[str]:
    """State a module keeps between calls: "module: global x" for each
    global or nonlocal statement, and "module.name" for each function
    decorated with lru_cache or cache, bare, called or as functools.<name>."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                found.append(f"{module}: {kind} {', '.join(node.names)}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("lru_cache", "cache"):
                        found.append(f"{module}.{node.name}")
    return sorted(found)


def test_no_module_state():
    # state that outlives a call is shared by every caller in the process;
    # no module rebinds a global, and a cache joins this list only with
    # its reason
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    assert module_state(trees) == [
        # perfbench reads its counters, and fq_exact and plot fq ask for
        # the same class number at every point
        "charsum._class_number_cached",
        # plot reads one Liouville table at every grid point
        "liouville._lam",
    ]


def test_module_state_detector():
    trees = {
        "a": ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                       "_n = 0\n"
                       "def bump():\n    global _n\n    _n += 1\n"
                       "def outer():\n    k = 0\n"
                       "    def inner():\n        nonlocal k\n        k += 1\n"
                       "    return inner\n"
                       "@functools.lru_cache(maxsize=4)\ndef f(x):\n    return x\n"
                       "@lru_cache\ndef g(x):\n    return x\n"
                       "@cache\ndef h(x):\n    return x\n"
                       "@functools.wraps(f)\ndef w(x):\n    \"\"\"Not cache.\"\"\"\n"
                       "    return x\n"),
    }
    assert module_state(trees) == ["a.f", "a.g", "a.h", "a: global _n",
                                   "a: nonlocal k"]


CHECK = Path(__file__).parent.parent / "src" / "charpos" / "check.py"
CHECKER_NTCORE = {"jacobi", "is_prime", "PI4_HI", "PI4_LO"}
BUILDER_MODULES = {"charsum", "fq", "liouville"}


def numpy_imports(node: ast.AST) -> list[tuple[str, str]]:
    """(bound name, dotted origin) for each numpy name an import binds."""
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name.split(".")[0], alias.name)
                for alias in node.names
                if alias.name.split(".")[0] == "numpy"]
    if (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "numpy"):
        return [(alias.asname or alias.name, f"{node.module}.{alias.name}")
                for alias in node.names]
    return []


def checker_reads(tree: ast.Module, entry: str = "verify_certificate"):
    """(helpers walked, names the checker reads that belong to the builder).

    Starting from `entry`, follows every module-level function it names,
    transitively, plus the module-level assignments of the constants they
    read.  A read is flagged if the name was imported from a builder module
    (charsum, fq, liouville), or from ntcore outside CHECKER_NTCORE, or is
    an ntcore.<attr> access outside it.  A read of a name bound by a numpy
    import, and a numpy import inside the walked code, are flagged too, so
    the checker stays free of sieves and floats.
    """
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    consts = {t.id: n for n in tree.body if isinstance(n, ast.Assign)
              for t in n.targets if isinstance(t, ast.Name)}
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                origin[alias.asname or alias.name] = (node.module, alias.name)
        for name, real in numpy_imports(node):
            origin[name] = ("numpy", real)
    seen, todo, bad = set(), [entry], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        body = defs.get(name) or consts[name]
        allowed = set()
        for node in ast.walk(body):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and origin.get(node.value.id) == (None, "ntcore")):
                allowed.add(id(node.value))
                if node.attr not in CHECKER_NTCORE:
                    bad.append(f"ntcore.{node.attr}")
        for node in ast.walk(body):
            bad.extend(real for _, real in numpy_imports(node))
            if not isinstance(node, ast.Name) or id(node) in allowed:
                continue
            if node.id in defs or node.id in consts:
                todo.append(node.id)
            module, real = origin.get(node.id, ("", ""))
            if module in BUILDER_MODULES:
                bad.append(f"{module}.{real}")
            elif module == "ntcore" and real not in CHECKER_NTCORE:
                bad.append(f"ntcore.{real}")
            elif module is None and real == "ntcore":
                bad.append("ntcore")
            elif module == "numpy":
                bad.append(real)
    return seen, sorted(set(bad))


def test_checker_shares_no_code_with_the_builder():
    tree = ast.parse(CHECK.read_text())
    seen, bad = checker_reads(tree)
    # the walk reaches every module-level function and constant, so the
    # check is not vacuous and check.py holds nothing but the checker
    names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    names |= {t.id for n in tree.body if isinstance(n, ast.Assign)
              for t in n.targets if isinstance(t, ast.Name)}
    assert seen == names
    assert {"verify_certificate", "_is_int", "_checker_thresholds"} <= seen
    assert bad == []
    # and its only package import is ntcore's
    assert {(n.module, a.name) for n in tree.body
            if isinstance(n, ast.ImportFrom) and n.level == 1
            for a in n.names} == {(None, "ntcore"), ("ntcore", "is_prime"),
                                  ("ntcore", "jacobi")}


def test_checker_reads_detector_flags_builder_names():
    tree = ast.parse(
        "from . import ntcore\n"
        "from .charsum import class_number\n"
        "from .ntcore import jacobi, quad_char\n"
        "LIMIT = quad_char(7)\n"
        "def helper(q):\n    return class_number(q).h + ntcore.BLOCK\n"
        "def verify_certificate(c):\n"
        "    return helper(c) + jacobi(2, 7) + ntcore.PI4_HI + LIMIT\n")
    seen, bad = checker_reads(tree)
    assert seen == {"verify_certificate", "helper", "LIMIT"}
    assert bad == ["charsum.class_number", "ntcore.BLOCK", "ntcore.quad_char"]

    tree = ast.parse(
        "import math\n"
        "import numpy as np\n"
        "from numpy import zeros as z\n"
        "from .ntcore import jacobi\n"
        "def unused():\n    return np.ones(3)\n"
        "def helper(n):\n    return z(n) + math.isqrt(n)\n"
        "def verify_certificate(c):\n"
        "    import numpy.linalg\n"
        "    return np.sum(helper(c)) + jacobi(2, 7)\n")
    seen, bad = checker_reads(tree)
    assert seen == {"verify_certificate", "helper"}
    assert bad == ["numpy", "numpy.linalg", "numpy.zeros"]


INSTRUMENT = Path(__file__).parent.parent / "perfbench" / "instrument.py"


def trace_targets(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, function) of each entry of the module-level TARGETS tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return [(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TARGETS tuple")


def test_perfbench_trace_targets_exist():
    # perfbench --trace 1 wraps each charpos.<module>.<function> in TARGETS
    # by name and reads the class number cache's counters, so removing or
    # renaming one in src breaks the traced run
    from charpos import charsum

    targets = trace_targets(ast.parse(INSTRUMENT.read_text()))
    missing = [f"{mod}.{fn}" for mod, fn in targets if not callable(
        getattr(importlib.import_module(f"charpos.{mod}"), fn, None))]
    assert missing == []
    assert callable(charsum._class_number_cached.cache_info)
