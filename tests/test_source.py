"""Checks on the package source itself, using only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p
    for p in (ROOT / "src" / "qrnet").glob("*.py")
    if p.name != "__init__.py"  # re-exports names it never uses itself
)
# where a name counts as used: tests do not count, and neither do the
# package's re-exports
CALLERS = SOURCES + sorted(
    p for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module uses: loaded names, attributes, imports and strings.

    Strings count because a profiler can wrap a function by its name.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    used: set[str] = set()
    for path in CALLERS:
        used |= _referenced(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == []


def test_every_keyword_only_parameter_is_passed_outside_the_tests():
    # matched by name, like the check above: a keyword counts as passed when
    # any call in src/qrnet, demos/ or perfbench/ names it
    passed: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                passed.update(kw.arg for kw in node.keywords if kw.arg)
    unused = [
        f"{path.name}:{node.lineno} {node.name}({arg.arg}=)"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.kwonlyargs
        if arg.arg not in passed
    ]
    assert unused == []


def _dataclass_fields(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt


def test_every_dataclass_field_is_read_outside_the_tests():
    # a field counts as read when code in src/qrnet, demos/ or perfbench/
    # loads an attribute of its name, or names it in a string (getattr);
    # writing it, by keyword or by assignment, does not count
    read: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [
        f"{path.name}:{stmt.lineno} {cls}.{stmt.target.id}"
        for path in SOURCES
        for cls, stmt in _dataclass_fields(ast.parse(path.read_text(), str(path)))
        if stmt.target.id not in read
    ]
    assert unread == []


# positional index of ``owner`` in each Simulator scheduling call
_OWNER_ARG = {"schedule": 4, "after": 4, "send_classical": 5}


def _scoped_nodes(tree: ast.Module):
    """Yield (enclosing qualname, node) for every node below ``tree``."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                yield from visit(child, scope)

    yield from visit(tree, "")


def _calls_to(tree: ast.Module, names):
    """Yield (enclosing qualname, call) for each call of a method in ``names``."""
    for scope, node in _scoped_nodes(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            yield scope, node


def _owner_of(call: ast.Call):
    for kw in call.keywords:
        if kw.arg == "owner":
            return kw.value
    index = _OWNER_ARG[call.func.attr]
    return call.args[index] if len(call.args) > index else None


def test_every_protocol_event_names_its_owner():
    # the engine retires an event only through its owner, so an event with
    # none outlives whatever sent it; a request's arrival alone has no owner
    # yet, since the arrival is what brings it into the run
    ownerless, owned = [], 0
    for name in ("linklayer.py", "netlayer.py"):
        path = ROOT / "src" / "qrnet" / name
        for scope, call in _calls_to(ast.parse(path.read_text(), str(path)), _OWNER_ARG):
            owner = _owner_of(call)
            if owner is None or (isinstance(owner, ast.Constant) and owner.value is None):
                ownerless.append(f"{name} {scope} {call.func.attr}")
            else:
                owned += 1
    assert ownerless == ["netlayer.py NetworkService._push schedule"]
    assert owned  # the scan does see the calls


def test_the_link_layer_takes_and_frees_no_memory():
    # a session's owner reserves its slots and frees them, so the link layer
    # calls the ledger only to park a segment at a shut gate and unpark it
    path = ROOT / "src" / "qrnet" / "linklayer.py"
    calls = [
        f"{scope} {call.func.attr}"
        for scope, call in _calls_to(
            ast.parse(path.read_text(), str(path)),
            {"acquire", "book", "release", "release_all", "close", "park", "unpark"},
        )
    ]
    assert calls == ["_Segment._tick park", "LinkSession._cleanup unpark"]


def test_every_protocol_swaps_and_counts_through_one_step():
    # SL, OL, CL legs and hybrid anchors all swap through
    # linklayer.swap_pairs, so one place gives a merged pair its decay
    # rate and counts it; a hop session's count is only summed into its
    # leg's
    swaps, counts = [], []
    for path in SOURCES:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "swap" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                swaps.append(f"{path.name} {scope}")
            elif isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) == "swaps":
                counts.append(f"{path.name} {scope} {ast.unparse(node)}")
    assert swaps == ["linklayer.py swap_pairs"]
    assert counts == [
        "linklayer.py swap_pairs stats.swaps += 1",
        "netlayer.py _merge_stats into.swaps += part.swaps",
    ]


def test_requests_build_sessions_and_schedule_orders_in_one_place_each():
    # CO and hybrid alternate requests start their one session through
    # NetworkService._start_session, and a connectionless leg builds one per
    # hop; the controller's orders for CO and hybrid requests go out
    # through NetworkService._order alone
    path = ROOT / "src" / "qrnet" / "netlayer.py"
    sessions, orders = [], []
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "LinkSession":
            sessions.append(scope)
        elif getattr(node.func, "attr", None) in _OWNER_ARG and len(node.args) > 3:
            summary = node.args[3]
            text = summary.values[0] if isinstance(summary, ast.JoinedStr) else summary
            if isinstance(text, ast.Constant) and str(text.value).startswith("orders"):
                orders.append(scope)
    assert sessions == ["_ClLeg._launch_segment", "NetworkService._start_session"]
    assert orders == ["NetworkService._order"]
