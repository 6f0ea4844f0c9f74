"""The benchmark's span tracer still finds every function it wraps, each
defined in the layer its target names, the package's imports stay at module
level with no poisson -> bialg cycle, no module keeps state behind a global
statement, a module-level memo or a second cached_property, root systems
are built behind the one cache of types, ints are read from text by one
reader, root-vector operators are built by one recurrence and checked
against Serre's relations by one function, the Jacobi oracle shares no
code with the Schouten verdict it checks, denominators are cleared
entry by entry at four sites only, and bialg.int_brackets only re-indexes
a bracket table that is already int, which _parabolic reads once, and
qsl2 tests its central element's centrality in one function, which the
braided powers read in place of the commutor and the X-generator report."""

import ast
import builtins
import importlib
import importlib.util
from pathlib import Path

from qsym.liealg import shared_type

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "qsym"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_resolve():
    """Every (layer, function) target of perfbench/spans.py is a callable of
    qsym.<layer>, and the tracer installs on all of them and uninstalls
    without leaving a wrapper behind."""
    spans = _load_spans()
    assert len(spans.TARGETS) == 19
    homes = {}
    for layer, name in spans.TARGETS:
        homes[layer] = importlib.import_module("qsym." + layer)
        assert callable(getattr(homes[layer], name, None)), (layer, name)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for layer, name in spans.TARGETS:
            assert getattr(getattr(homes[layer], name), spans._MARK, False), (layer, name)
    finally:
        tracer.uninstall()
    assert spans.Tracer.leftover_wrappers() == 0


def test_span_targets_are_defined_in_their_layers():
    """Every (layer, function) of TARGETS in perfbench/spans.py, read with
    ast and not imported, names a function or class defined at the top of
    src/qsym/<layer>.py: the tracer wraps getattr(qsym.<layer>, function),
    so renaming or deleting one of them would break every traced run."""
    targets = None
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            targets = ast.literal_eval(node.value)
    assert targets, "no TARGETS list in perfbench/spans.py"
    defined = {}
    for layer, name in targets:
        if layer not in defined:
            path = SRC / (layer + ".py")
            assert path.is_file(), layer
            defined[layer] = {n.name for n in ast.parse(path.read_text(), str(path)).body
                              if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert name in defined[layer], (layer, name)


def test_imports_at_module_level_and_poisson_does_not_import_bialg():
    """No module of qsym imports inside a function, class or block (every
    import statement starts in column 0), and qsym.poisson imports nothing
    from qsym.bialg, so bialg imports poisson at its top with no cycle."""
    poisson_imports = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert node.col_offset == 0, (path.name, node.lineno)
                if path.name == "poisson.py":
                    if isinstance(node, ast.Import):
                        poisson_imports.update(a.name for a in node.names)
                    elif node.level:
                        poisson_imports.update(
                            "qsym." + (node.module or a.name) for a in node.names)
                    else:
                        poisson_imports.add(node.module)
    assert "qsym.liealg" in poisson_imports
    assert not any(name == "qsym.bialg" or name.startswith("qsym.bialg.")
                   for name in poisson_imports), poisson_imports


def test_no_global_statement():
    """No module of qsym rebinds a module global from inside a function:
    memoisation goes through functools.cache."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Global), (path.name, node.lineno)


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def test_no_module_level_memo():
    """No module of qsym binds a module-level name to an empty {}, [],
    set(), dict() or list(), the shape of a hand-rolled memo, and a
    shared_type entry holds its root system and, once built, its algebra
    only: every memo is a functools.cache on the function that computes it."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                assert not (node.value is not None and _is_empty_container(node.value)), \
                    (path.name, node.lineno)
    entry = shared_type("A2")
    assert set(vars(entry)) <= {"rs", "algebra"}
    entry.algebra
    assert set(vars(entry)) == {"rs", "algebra"}


def _calls_by_function(tree, name):
    """Qualified names of the functions whose bodies call `name`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_cached_property():
    """SharedType.algebra is the only cached_property in qsym, and nothing
    else names one: every other memo is a functools.cache on the function
    that computes it, so no object grows a lazily built attribute."""
    found = set()

    def visit(node, scope, stem):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Name) and node.id == "cached_property"
              or isinstance(node, ast.Attribute) and node.attr == "cached_property"):
            found.add(".".join((stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, stem)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (), path.stem)
    assert found == {"liealg.SharedType.algebra"}, found


def test_root_systems_built_only_behind_shared_type():
    """build_root_system is called in qsym only by liealg.shared_type, the
    one cache of types; chevalley_basis takes a root system already built,
    and the Chevalley bootstrap builds its module on the algebra's own
    root system."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callers |= {"%s.%s" % (path.stem, f)
                    for f in _calls_by_function(tree, "build_root_system")}
    assert callers == {"liealg.shared_type"}, callers


def test_type_spellings_parsed_only_in_rootsys():
    """A type spelling is parsed only by rootsys.normalize_type, and every
    int read from text goes through the one reader scalars.ascii_int: it is
    called by normalize_type (ranks), cli._parse_weight (weights) and
    qsl2._tokenize (exponents) and is the type= of all seven int options
    of the CLI; no isdigit-like test is left but the one that tells a
    negative weight from an option, none of those readers and no cli
    function calls int, and classify neither reads a rank with int nor a
    letter with upper."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}

    def callers(name):
        return {"%s.%s" % (stem, f) for stem, tree in trees.items()
                for f in _calls_by_function(tree, name)}

    assert callers("ascii_int") == {"rootsys.normalize_type", "cli._parse_weight",
                                    "qsl2._tokenize"}
    for name in ("isdigit", "isdecimal", "isnumeric"):
        assert callers(name) <= {"cli._attach_weight_values"}, name
    assert not callers("int") & {"rootsys.normalize_type", "qsl2._tokenize"}
    assert not _calls_by_function(trees["cli"], "int")
    types = [kw.value for node in ast.walk(trees["cli"])
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
             for kw in node.keywords if kw.arg == "type"]
    assert len(types) == 7 and all(isinstance(t, ast.Name) and t.id == "ascii_int"
                                   for t in types), [ast.dump(t) for t in types]
    for name in ("int", "upper"):
        assert not _calls_by_function(trees["classify"], name), name


def test_one_root_vector_recurrence():
    """liealg.root_vector_ops alone builds root-vector operators:
    the Chevalley bootstrap and highest_weight_module call it and nothing
    else does, highest_weight_module takes no commutator of its own, and the
    recipe table the recurrence replaced is gone from src/qsym."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "recipes" not in text, path.name
        callers |= {"%s.%s" % (path.stem, f)
                    for f in _calls_by_function(ast.parse(text, str(path)), "root_vector_ops")}
    assert callers == {"liealg.ChevalleyAlgebra._bootstrap",
                       "liealg.highest_weight_module"}, callers
    tree = ast.parse((SRC / "liealg.py").read_text())
    for name in ("_mcomm", "scaled_comm"):
        assert not any(f.split(".")[0] == "highest_weight_module"
                       for f in _calls_by_function(tree, name)), name


def _called_names(node):
    """Names called as plain functions (f(...), not obj.f(...)) inside node."""
    return {n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def _reach(defs, roots):
    """The roots and every name they call, following poisson's own top-level
    functions and classes (a class counts as all of its methods)."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in defs:
                todo.extend(_called_names(defs[name]))
    return seen


def test_jacobi_side_shares_no_loop_with_schouten_promoted():
    """The Jacobi oracle and its bracket table (jacobi_oracle,
    generator_brackets, GeneratorBrackets) call nothing that
    schouten_promoted calls, directly or through poisson's own helpers,
    apart from builtins: schouten_promoted reads _cybe_tensor's int tensor
    and clears no denominator; neither side calls the other, and neither
    rescales the module: both read its int form, and poisson calls no
    int_columns."""
    tree = ast.parse((SRC / "poisson.py").read_text())
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    jacobi_roots = {"jacobi_oracle", "generator_brackets", "GeneratorBrackets"}
    assert jacobi_roots | {"schouten_promoted"} <= set(defs)
    jacobi = _reach(defs, jacobi_roots)
    schouten = _reach(defs, {"schouten_promoted"})
    shared = jacobi & schouten - set(dir(builtins))
    assert shared == set(), shared
    assert not _calls_by_function(tree, "int_columns"), "poisson rescales a module"
    assert "tt_skew" in jacobi
    assert not jacobi & {"schouten_promoted", "_check_antisymmetric"}, jacobi
    assert not schouten & jacobi_roots, schouten


def _clearing_sites(tree):
    """Qualified names of the functions holding v.numerator * (L // v.denominator)."""
    found = []

    def is_clearing(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and isinstance(node.left, ast.Attribute) and node.left.attr == "numerator"
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.FloorDiv)
                and isinstance(node.right.right, ast.Attribute)
                and node.right.right.attr == "denominator")

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif is_clearing(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_denominators_cleared_at_four_sites():
    """The clearing expression v.numerator * (L // v.denominator) is written
    once in each of four functions in src/qsym: scalars.cleared, the one
    helper for a flat dict; scalars._ints, QRat's coefficient lists;
    rootsys.RootSystem.__init__, the Gram rows; liealg.int_columns, the
    column-form matrices. Every other caller goes through one of them."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += ["%s.%s" % (path.stem, f)
                  for f in _clearing_sites(ast.parse(path.read_text(), str(path)))]
    assert sorted(sites) == ["liealg.int_columns", "rootsys.RootSystem.__init__",
                             "scalars._ints", "scalars.cleared"], sites


def test_one_relation_check():
    """Serre's relations are checked by one function, liealg._check_relations,
    defined once in src/qsym and called by the Chevalley bootstrap and by
    highest_weight_module and by nothing else: the module the Schouten
    verdict reads on its dominant wedges is certified by the bootstrap's own
    check, and no second copy of it (or of its Serre message) exists."""
    defined, callers, messages = [], set(), 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        defined += ["%s.%s" % (path.stem, n.name) for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.name == "_check_relations"]
        callers |= {"%s.%s" % (path.stem, f)
                    for f in _calls_by_function(tree, "_check_relations")}
        messages += text.count("Serre relation fails")
    assert defined == ["liealg._check_relations"], defined
    assert callers == {"liealg.ChevalleyAlgebra._bootstrap",
                       "liealg.highest_weight_module"}, callers
    assert messages == 1, messages


def test_int_brackets_clears_nothing():
    """bialg.int_brackets calls neither den_lcm nor int_columns: every
    bracket table is stored as ints over its own den, so reading it is a
    re-indexing. _parabolic reads the ambient through one int_brackets call,
    which gives both its table and delta, and calls no bracket_idx."""
    tree = ast.parse((SRC / "bialg.py").read_text())
    for name in ("den_lcm", "int_columns", "cleared"):
        assert "int_brackets" not in _calls_by_function(tree, name), name
    assert "int_brackets" in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    parabolic = next(n for n in tree.body if getattr(n, "name", None) == "_parabolic")
    calls = [n.func.id for n in ast.walk(parabolic)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert calls.count("int_brackets") == 1, calls
    assert "_parabolic" not in _calls_by_function(tree, "bracket_idx")


def _commutation_tests(tree):
    """Qualified names of the functions holding a comparison x * y == y * x."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], ast.Eq)):
            a, b = node.left, node.comparators[0]
            if (all(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Mult) for x in (a, b))
                    and ast.dump(a.left) == ast.dump(b.right)
                    and ast.dump(a.right) == ast.dump(b.left)):
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_centrality_test():
    """The central element's commutation test, x * g == g * x, is written
    once in src/qsym, in qsl2._central_element, whose callers are exactly
    _compute_locally_finite and braided_flatness; braided_flatness, nested
    functions included, calls neither commutor_matrix nor
    locally_finite_generators."""
    sites, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites |= {"%s.%s" % (path.stem, f) for f in _commutation_tests(tree)}
        callers |= {"%s.%s" % (path.stem, f)
                    for f in _calls_by_function(tree, "_central_element")}
    assert sites == {"qsl2._central_element"}, sites
    assert callers == {"qsl2._compute_locally_finite", "qsl2.braided_flatness"}, callers
    tree = ast.parse((SRC / "qsl2.py").read_text())
    for name in ("commutor_matrix", "locally_finite_generators"):
        assert not any(f.split(".")[0] == "braided_flatness"
                       for f in _calls_by_function(tree, name)), name
