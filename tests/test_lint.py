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
or holds one in its ``else``, save the functions in ``OWN_LOOPS``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lpcat"

# Qualified function name -> parameters it may leave unread.
ALLOWED = {
    "GeneratingSet.vector_of": {"coeffs"},
}

# Dicts kept on an object that are not memo tables: a delay schedule.
NOT_CACHES = {"CeSet._pinned_by_stage"}

# Functions that may keep a hand-rolled escalation loop.  escalate is the
# loop itself.  The E_j kernel runs 108 times per twisted-norm benchmark
# operation, and escalate there cost about 8 % of that workload's ops/s.
OWN_LOOPS = {"escalate", "_epsilon_mantissas"}


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
