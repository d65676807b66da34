"""Source lint for ``src/lpcat``.

Every function parameter is read.  A parameter that no line of its
function reads is an interface the code does not honour: callers pass a
value that changes nothing.  Exempt are names with a leading underscore
(kept unread on purpose), the instance or class a method is bound to,
abstract methods whose body only raises NotImplementedError, and the
interface defaults in ``ALLOWED``, whose subclasses read the argument.

Every cache is a ``rigor.MemoTable``: no module-level name or ``self.``
attribute is bound to an empty dict outside that class, save the tables
in ``NOT_CACHES``.

Every precision-escalation loop runs on ``rigor.escalate``: outside it,
no ``for _ in range(...)`` loop is followed by ``raise OracleFailure``
or holds one in its ``else``.  ``OWN_LOOPS`` names the one exception,
``escalate`` itself; a kernel that needs more precision returns a wider
certified enclosure, and the escalating caller retries.

A round of an escalation loop runs at the precision ``escalate`` yields:
no ``for`` loop over ``escalate(...)`` rebinds its target in its body,
by ``=``, ``+=``, ``:=`` or a nested ``for``.  A round that needs a
higher precision ends, and the loop's step yields that precision next.

Every power sum runs on ``rigor._pow_sum``: outside ``rigor.py``, no
``for`` or ``while`` loop both calls ``_pow_route`` or ``_pow_slack`` and
adds to an accumulator with ``+=``.

The point-power router ``_pow_route`` belongs to ``rigor``: no other
module imports it or reads it as an attribute, so a caller reads one power form on both exponent
tracks, ``_pow_slack``'s, and never forks on the track to reach the
router.

The exponent track is tested only where a power kernel needs it: outside
``Exponent``, ``_pow_slack`` and ``_pow_mantissas``, no ``is None`` or
``is not None`` comparison reads ``.fast`` or a name bound from
``.fast``.  Every other reader takes one form on both tracks, the
bracket or ``_pow_slack``'s ends; a value test such as ``p.fast == 1``
is not a track test.

The power kernels run on the integer form: ``_pow_route``,
``_pow_dyadic_enclosure``, ``_exp_gap``, ``_gap_terms``, ``_pow_slack``,
``_pow_sum``, ``_tree_sum`` and ``_pow_mantissas``, with what is nested
in them, read ``Fraction`` only in type annotations, so they build none,
read no ``CRat`` part as a Fraction (``.re`` or ``.im``) and no
``Enclosure`` end as one (``.lo``, ``.hi``, ``.width`` or
``.midpoint``), and make no ``is`` or ``is not`` comparison other than
with ``None``: a base (lo, hi, den) is a point when lo == hi, not when
two end objects are one.  The same holds for ``Enclosure``, which stores
that form: its constructor, geometry, arithmetic and printing build no
Fraction, which only its readers (``lo``, ``hi``, ``width``,
``midpoint``) do; for the ``CeSet`` functions that return gamma's prefix
sums in it; for ``CRat``'s integer form (re, im, den): its constructor
``from_ints``, its arithmetic and printing, and the functions in
``INTEGER_FUNCTIONS`` that read its fields in the ball map, the
residuals, the squared moduli, the twisted quadratics and the
descriptor; and for the isometry layer's readers of ``Enclosure.ints``:
``classify``'s band tests, ``check_ballmap``'s radius tests and the
rotation demo's sample loop, which cross-multiply integer ends.

Every parameter with a default is set by some caller: a call in
``src/lpcat`` or ``perfbench/`` passes it, by keyword or by position,
and not as the literal the default already is.
A default no caller overrides is a setting no workload runs; make it a
constant.  Calls are matched by name; ``Cls(...)``, ``cls(...)`` and
``super().__init__(...)`` call the ``__init__`` that class resolves to,
or its ``__new__`` when it defines no ``__init__``.
Exempt are names with a leading underscore and the parameters in
``NO_CALLER``.

Every public name has a caller: each name ``lpcat.__init__`` exports,
and each public method or property of a class defined in ``src/lpcat``,
is read (as a name or an attribute) somewhere in ``src/lpcat``,
``perfbench/`` or ``demos/``.  A type check is not a caller: a read
inside the second argument of ``isinstance`` or ``issubclass``, inside
a type annotation, or inside a ``Union[...]`` or ``Optional[...]``
subscript does not count, since a class only those name is one the
system never builds.  A name only tests read is surface the system
does not use; give it a caller or delete it.  Exempt are dunders,
methods that override one of a base class in ``src/lpcat`` (the caller
reads the base's name), and the names in ``UNCALLED_EXPORTS``, each with
its reason.

Every import is used: each name an import binds is read somewhere in
its module.  ``__init__.py`` is exempt, since its imports are the
package's exports.

The two twisted norm routes stay apart: no function of ``twisted.py`` is
reached both from ``expanded_residual_norm`` and from
``TwistedGenSet.norm_enclosure``, following every name that refers to a
module-level function of ``twisted.py``, nested functions and lambdas
included.  Names imported from ``rigor`` or ``lpspace``, and methods of
the set both routes read, may be shared: comparing the two routes checks
each only while their own code is separate.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lpcat"
PERFBENCH = SRC.parent.parent / "perfbench"
DEMOS = SRC.parent.parent / "demos"

# Qualified function name -> parameters it may leave unread.
ALLOWED = {
    "GeneratingSet.vector_of": {"coeffs"},
}

# Dicts kept on an object that are not memo tables: a delay schedule.
NOT_CACHES = {"CeSet._pinned_by_stage"}

# Functions that may keep a hand-rolled escalation loop: escalate, the
# loop itself.
OWN_LOOPS = {"escalate"}

# Qualified function name -> {parameter: why it keeps a default no caller
# sets}.
NO_CALLER: dict[str, dict[str, str]] = {}

# Exported name -> why it stays exported though only tests read it.
UNCALLED_EXPORTS = {
    "compose_ballmaps": "the ball-map model's composition; ROADMAP item 10 "
    "composes the identity map E -> F through it",
    "identity_family": "the image family of the identity from E onto F; "
    "ROADMAP item 10 gives it a caller",
}


def _functions(tree: ast.Module):
    """(qualified name, node, is_method) for every function, nested ones
    named after their enclosing class or function."""

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, in_class
                yield from walk(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", True)
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(tree, "", False)


def _is_abstract(func: ast.FunctionDef) -> bool:
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def _unread_parameters(func: ast.FunctionDef, is_method: bool) -> set[str]:
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    static = any(ast.unparse(d) == "staticmethod" for d in func.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    params = [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None and not a.arg.startswith("_")}
    read = {
        node.id
        for stmt in func.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return names - read


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func, is_method in _functions(tree):
            if _is_abstract(func):
                continue
            missing = _unread_parameters(func, is_method) - ALLOWED.get(name, set())
            unread += [f"{path.name}:{func.lineno} {name}({p})" for p in sorted(missing)]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def _is_empty_dict(node) -> bool:
    if isinstance(node, ast.Call):
        return ast.unparse(node) == "dict()"
    return isinstance(node, ast.Dict) and not node.keys


def _empty_dict_bindings(tree: ast.Module):
    """(name, line) of each module-level name and each ``self.`` attribute
    bound to an empty dict, the attribute named after its class; the
    MemoTable class itself is skipped."""

    def targets(stmt):
        if isinstance(stmt, ast.Assign) and _is_empty_dict(stmt.value):
            return stmt.targets
        if isinstance(stmt, ast.AnnAssign) and _is_empty_dict(stmt.value):
            return [stmt.target]
        return []

    for stmt in tree.body:
        for target in targets(stmt):
            if isinstance(target, ast.Name):
                yield target.id, stmt.lineno
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name == "MemoTable":
            continue
        for stmt in ast.walk(cls):
            for target in targets(stmt):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield f"{cls.name}.{target.attr}", stmt.lineno


def test_every_cache_is_a_memo_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [
            f"{path.name}:{line} {name}"
            for name, line in _empty_dict_bindings(tree)
            if name not in NOT_CACHES
        ]
    assert not stray, "dicts that should be MemoTables:\n" + "\n".join(stray)


def _raises_oracle_failure(stmt) -> bool:
    return (
        isinstance(stmt, ast.Raise)
        and stmt.exc is not None
        and ast.unparse(stmt.exc).startswith("OracleFailure(")
    )


def _own_nodes(func):
    """func and the nodes in it, without the functions and classes defined
    in it, which _functions yields on their own."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [func]
    while stack:
        node = stack.pop()
        yield node
        stack += [child for child in ast.iter_child_nodes(node) if not isinstance(child, scopes)]


def _hand_rolled_escalations(func):
    """Lines of ``for _ in range(...)`` loops in func that are followed by
    ``raise OracleFailure`` or hold one in their ``else``."""
    for node in _own_nodes(func):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            for stmt, after in zip(body, body[1:] + [None]):
                if not (
                    isinstance(stmt, ast.For)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "_"
                    and isinstance(stmt.iter, ast.Call)
                    and ast.unparse(stmt.iter.func) == "range"
                ):
                    continue
                if _raises_oracle_failure(after) or any(
                    _raises_oracle_failure(s) for s in stmt.orelse
                ):
                    yield stmt.lineno


def test_every_escalation_runs_on_escalate():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func, _ in _functions(tree):
            if name in OWN_LOOPS:
                continue
            stray += [f"{path.name}:{line} {name}" for line in _hand_rolled_escalations(func)]
    assert not stray, "escalation loops that should use rigor.escalate:\n" + "\n".join(stray)


def _rebound_targets(func):
    """Lines in func where the body of a ``for`` loop over ``escalate(...)``
    rebinds one of the loop's target names."""
    for loop in _own_nodes(func):
        if not (
            isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Call)
            and ast.unparse(loop.iter.func).split(".")[-1] == "escalate"
        ):
            continue
        names = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        for stmt in loop.body:
            for node in _own_nodes(stmt):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.For, ast.NamedExpr)):
                    targets = [node.target]
                else:
                    continue
                if any(
                    isinstance(n, ast.Name) and n.id in names
                    for target in targets
                    for n in ast.walk(target)
                ):
                    yield node.lineno


def test_every_round_runs_at_the_yielded_precision():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func, _ in _functions(tree):
            stray += [f"{path.name}:{line} {name}" for line in _rebound_targets(func)]
    assert not stray, "escalation rounds that leave the yielded precision:\n" + "\n".join(stray)


# The point powers a power-sum loop would add up.
POINT_POWERS = {"_pow_route", "_pow_slack"}


def _power_sum_loops(tree: ast.Module):
    """Lines of the loops in tree that call one of POINT_POWERS and hold an
    ``x += ...`` anywhere in their body."""
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        nodes = [n for stmt in loop.body for n in ast.walk(stmt)]
        calls = {
            getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in nodes
            if isinstance(n, ast.Call)
        }
        adds = any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add) for n in nodes)
        if calls & POINT_POWERS and adds:
            yield loop.lineno


def test_every_power_sum_runs_on_pow_sum():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rigor.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}" for line in _power_sum_loops(tree)]
    assert not stray, "power-sum loops that should use rigor._pow_sum:\n" + "\n".join(stray)


def test_only_rigor_imports_pow_route():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rigor.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_pow_route"
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == "_pow_route" for alias in node.names)
        ]
    assert not stray, "reads of rigor._pow_route outside rigor:\n" + "\n".join(stray)


# Functions, with what is nested in them, that may test the exponent
# track: the Exponent class and the two power kernels that fork on it.
TRACK_TESTS = {"Exponent", "_pow_slack", "_pow_mantissas"}


def _track_tests(func):
    """Lines in func of ``is None`` / ``is not None`` comparisons whose
    other side is a ``.fast`` attribute or a name func binds from one."""

    def is_fast(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "fast"

    nodes = list(_own_nodes(func))
    bound = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and is_fast(node.value):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.NamedExpr) and is_fast(node.value):
            bound.add(node.target.id)
    for node in nodes:
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
            continue
        if not isinstance(node.ops[0], (ast.Is, ast.IsNot)):
            continue
        sides = [node.left, node.comparators[0]]
        if not any(isinstance(n, ast.Constant) and n.value is None for n in sides):
            continue
        if any(is_fast(n) or isinstance(n, ast.Name) and n.id in bound for n in sides):
            yield node.lineno


def test_only_the_power_kernels_test_the_exponent_track():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func, _ in _functions(tree):
            if name.split(".")[0] in TRACK_TESTS:
                continue
            stray += [f"{path.name}:{line} {name}" for line in _track_tests(func)]
    assert not stray, "exponent track tests outside the power kernels:\n" + "\n".join(stray)


# Module -> the functions in it that run on integers: the power kernels,
# Enclosure's constructor, geometry, arithmetic and printing, the CeSet
# functions that read gamma, CRat's integer form, its arithmetic and
# printing and the readers of its fields, and the isometry layer's
# comparisons of enclosure ends.
INTEGER_FUNCTIONS = {
    "rigor.py": {
        "_pow_route", "_pow_dyadic_enclosure", "_exp_gap", "_gap_terms", "_pow_slack",
        "_pow_sum", "_tree_sum", "_pow_mantissas",
        "Enclosure.__new__", "Enclosure.__eq__", "Enclosure.__hash__", "Enclosure.point",
        "Enclosure.from_center", "Enclosure.contains", "Enclosure.intersects", "Enclosure.pad",
        "Enclosure.clamp_nonneg", "Enclosure.__add__", "Enclosure.__sub__", "Enclosure.__neg__",
        "Enclosure.scale", "Enclosure.recip", "Enclosure.__repr__", "Enclosure.as_json",
        "CRat.from_ints", "CRat.__eq__", "CRat.__hash__", "CRat.__add__", "CRat.__sub__",
        "CRat.__neg__", "CRat.__mul__", "CRat.is_zero", "CRat.is_real", "CRat.parts",
        "CRat.__repr__", "CRat.as_json",
    },
    "genset.py": {
        "_coerce_coeffs", "StandardGenSet.residual_norm", "ballmap_from_disjoint_family.transform",
        "check_ballmap",
    },
    "lpspace.py": {"_abs2_ends", "FiniteVector.to_quintuples", "FiniteVector.from_quintuples"},
    "twisted.py": {
        "_quad_coefficients", "_residual_quads",
        "CeSet.left_sum", "CeSet.gamma_enclosure", "CeSet.tail_mass",
    },
    "isometry.py": {
        "IsometryDescriptor.__post_init__", "IsometryDescriptor.as_json",
        "IsometryDescriptor.from_json", "classify", "_draw_sample", "_l2_norms",
        "_endpoint_gap", "_l2_samples",
    },
}


# Attributes that build a Fraction when read: CRat's parts and
# Enclosure's ends, width and midpoint.
FRACTION_READERS = ("re", "im", "lo", "hi", "width", "midpoint")


def _fractions_and_identities(func):
    """Lines in func, nested functions included, that read ``Fraction``
    outside a type annotation, a ``CRat`` part as a Fraction (``.re`` or
    ``.im``) or an ``Enclosure`` end as one (``.lo``, ``.hi``, ``.width``
    or ``.midpoint``), or compare with ``is`` or ``is not`` where neither
    side is ``None``."""
    types_only = _type_reads(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "Fraction" and id(node) not in types_only:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in FRACTION_READERS:
            yield node.lineno
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if not any(isinstance(n, ast.Constant) and n.value is None for n in sides):
                yield node.lineno


def test_the_power_kernels_build_no_fraction():
    stray = []
    for module, names in sorted(INTEGER_FUNCTIONS.items()):
        tree = ast.parse((SRC / module).read_text())
        found = {name: func for name, func, _ in _functions(tree) if name in names}
        assert found.keys() == names
        stray += [
            f"{module}:{line} {name}"
            for name, func in sorted(found.items())
            for line in _fractions_and_identities(func)
        ]
    assert not stray, "Fractions or identity tests in the integer functions:\n" + "\n".join(stray)


def _classes(trees) -> dict:
    """Class name -> (names of its bases, names of the methods it defines)."""
    return {
        node.name: (
            [ast.unparse(b) for b in node.bases],
            {f.name for f in node.body if isinstance(f, ast.FunctionDef)},
        )
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _init_of(name, classes):
    """The qualified __init__, or else __new__, that constructing class
    name runs."""
    while name in classes:
        bases, methods = classes[name]
        for method in ("__init__", "__new__"):
            if method in methods:
                return f"{name}.{method}"
        name = next((b for b in bases if b in classes), None)
    return None


def _calls(tree, classes):
    """(callee, call) for every call in tree: the qualified __init__ a
    construction runs, or else the called name."""

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if ast.unparse(func) == "super().__init__":
                    base = next((b for b in classes.get(cls, ((),))[0] if b in classes), None)
                    name = _init_of(base, classes)
                elif name in classes or name == "cls":
                    name = _init_of(cls if name == "cls" else name, classes)
                yield name, child
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    yield from walk(tree, None)


def _defaulted(func, is_method):
    """(parameter, index of the positional argument that sets it, or None
    for a keyword-only one, default) for each parameter with a default."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    static = any(ast.unparse(d) == "staticmethod" for d in func.decorator_list)
    offset = 1 if is_method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults, first):
        yield positional[i].arg, i - offset, default
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None, default


def _is_default(arg, default) -> bool:
    """Whether arg is the literal the default is: passing it sets nothing."""
    if not (isinstance(arg, ast.Constant) and isinstance(default, ast.Constant)):
        return False
    return type(arg.value) is type(default.value) and arg.value == default.value


def _sets(call, param, position, default) -> bool:
    for kw in call.keywords:
        if kw.arg is None or (kw.arg == param and not _is_default(kw.value, default)):
            return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position < len(call.args) and not _is_default(call.args[position], default)


def test_every_default_is_set_by_a_caller():
    src = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH.glob("*.py")]
    classes = _classes(src.values())
    calls = {}
    for tree in [*src.values(), *bench]:
        for name, call in _calls(tree, classes):
            calls.setdefault(name, []).append(call)
    unset, kept = [], set()
    for path, tree in sorted(src.items()):
        for name, func, is_method in _functions(tree):
            key = name if func.name in ("__init__", "__new__") else func.name
            for param, position, default in _defaulted(func, is_method):
                if param.startswith("_") or any(
                    _sets(c, param, position, default) for c in calls.get(key, ())
                ):
                    continue
                if param in NO_CALLER.get(name, {}):
                    kept.add((name, param))
                else:
                    unset.append(f"{path.name}:{func.lineno} {name}({param})")
    assert not unset, "defaults no caller sets:\n" + "\n".join(unset)
    listed = {(name, param) for name, params in NO_CALLER.items() for param in params}
    assert kept == listed, f"NO_CALLER entries that a caller sets: {listed - kept}"


def _public_methods(classes):
    """(class, name) of each public method or property in classes that
    overrides no method of a base class among them."""

    def overrides(cls, name):
        bases = [b for b in classes[cls][0] if b in classes]
        return any(name in classes[b][1] or overrides(b, name) for b in bases)

    for cls, (_, methods) in classes.items():
        for name in methods:
            if not name.startswith("_") and not overrides(cls, name):
                yield cls, name


def _type_reads(tree: ast.AST) -> set[int]:
    """ids of the nodes that only name a type: inside the second argument
    of isinstance or issubclass, an annotation, or a Union or Optional
    subscript."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) == 2:
            if isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
                roots.append(node.args[1])
        elif isinstance(node, ast.Subscript):
            name = node.value
            if getattr(name, "id", getattr(name, "attr", None)) in ("Union", "Optional"):
                roots.append(node)
        elif isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def test_every_public_name_has_a_caller():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    callers = [*SRC.glob("*.py"), *PERFBENCH.glob("*.py"), *DEMOS.glob("*.py")]
    for path in callers:
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        types_only = _type_reads(tree)
        for node in ast.walk(tree):
            if id(node) in types_only:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    uncalled = exported - read
    stray = sorted(uncalled - UNCALLED_EXPORTS.keys())
    assert not stray, "exported names only tests read:\n" + "\n".join(stray)
    kept, listed = uncalled & UNCALLED_EXPORTS.keys(), set(UNCALLED_EXPORTS)
    assert kept == listed, f"UNCALLED_EXPORTS entries that have a caller: {listed - kept}"
    src = [ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")]
    methods = sorted(_public_methods(_classes(src)))
    stray = [f"{cls}.{name}" for cls, name in methods if name not in read]
    assert not stray, "public methods only tests read:\n" + "\n".join(stray)


def _unused_imports(tree: ast.Module):
    """(name, line) of each name an import binds that the module never
    reads; ``from __future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in bound.items() if name not in read]


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert not unused, "imports never used:\n" + "\n".join(unused)


def _reached(start: ast.AST, functions: dict[str, ast.FunctionDef]) -> set[str]:
    """Names in functions that start refers to, directly or through the
    functions it reaches."""
    reached: set[str] = set()
    todo = [start]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name) and node.id in functions and node.id not in reached:
                reached.add(node.id)
                todo.append(functions[node.id])
    return reached


def test_the_two_twisted_norm_routes_share_no_function():
    tree = ast.parse((SRC / "twisted.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = {name: node for name, node, _ in _functions(tree)}
    expansion = _reached(functions["expanded_residual_norm"], functions)
    telescoping = _reached(methods["TwistedGenSet.norm_enclosure"], functions)
    assert expansion and telescoping
    assert not expansion & telescoping, f"shared by both norm routes: {expansion & telescoping}"
