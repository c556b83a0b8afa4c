"""A process decodes a message in one place, and timers call handlers.

:meth:`repro.net.process.SimProcess.on_message` is the decode boundary:
it checks that a message is a non-empty tuple with a routed tag and a
length its kind takes, so no handler re-checks a message's shape.  An
``ast`` walk over ``src/repro`` keeps it that way: no function but the
boundary calls ``isinstance`` on a message, except two that inspect
in-flight messages for another reason.  Timers are
``call_later(delay, handler, *args)``; the retired tag-dispatching timer
API must not come back.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The names a message goes by in a handler's or matcher's signature.
MESSAGE_NAMES = {"message", "msg", "m", "inner"}

#: file → functions allowed to inspect a message's type: the boundary,
#: and the selfish miner's in-flight matcher, which sees raw traffic on
#: the channel before any boundary does.
ALLOWED = {
    "net/process.py": {"on_message"},
    "workloads/scenarios.py": {"withholds"},
}

#: The retired timer API, spelled in two parts so that a text search of
#: the tree finds no use of it.
RETIRED_TIMER = "set" + "_timer"


def _functions(tree):
    """``(function node, its own body nodes)`` for every def and lambda,
    nested defs excluded from their parent's body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            own = []
            pending = list(ast.iter_child_nodes(node))
            while pending:
                child = pending.pop()
                own.append(child)
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    pending.extend(ast.iter_child_nodes(child))
            yield node, own


def _is_message(node):
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in MESSAGE_NAMES


def _message_type_checks(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for function, body in _functions(tree):
        name = getattr(function, "name", "<lambda>")
        for node in body:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and node.args
                and _is_message(node.args[0])
            ):
                yield name, node.lineno


def test_only_the_boundary_checks_a_message_type():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{line} in {name}"
        for path in SRC.rglob("*.py")
        for name, line in _message_type_checks(path)
        if name not in ALLOWED.get(path.relative_to(SRC).as_posix(), ())
    )
    assert offenders == []


def test_the_allowed_inspectors_exist():
    """A renamed boundary must not turn the walk above into a no-op."""
    for relative, names in ALLOWED.items():
        found = {name for name, _ in _message_type_checks(SRC / relative)}
        assert names <= found, relative


def test_no_source_uses_the_retired_timer_api():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if RETIRED_TIMER
        in (
            getattr(node, "attr", None),
            getattr(node, "id", None),
            getattr(node, "name", None),
        )
    )
    assert offenders == []
