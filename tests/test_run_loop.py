"""One run loop: stacks are built and recorded in one place.

Every event-engine entry point (``run_policy``'s event path,
``run_resilient``, ``run_closed_loop``, ``ServiceHarness`` and
``run_checked``) drives a :class:`repro.stack.Run`; none builds its own
stack or assembles its own :class:`~repro.record.RunRecord`.  This AST
guard keeps a new copy of the run loop from growing back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Call name -> the modules (relative to ``src/repro``) allowed to call it.
ALLOWED_CALLERS = {
    "build_stack": {"stack.py"},
    "RunRecord": {"record.py", "stack.py"},
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def run_loop_copies(root: Path) -> list[str]:
    """``path:line name`` of every guarded call outside its allowed modules."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            allowed = ALLOWED_CALLERS.get(name)
            if allowed is not None and relative not in allowed:
                found.append(f"{relative}:{node.lineno} {name}(...)")
    return found


def test_stacks_are_built_and_recorded_only_by_the_run_loop():
    copies = run_loop_copies(SRC)
    assert not copies, (
        "drive a repro.stack.Run instead of building or recording a stack "
        f"by hand: {copies}"
    )


def test_guard_sees_a_copy(tmp_path):
    (tmp_path / "stack.py").write_text("build_stack(sim, 'fcfs', config)\n")
    (tmp_path / "copy.py").write_text(
        "system = build_stack(sim, 'fcfs', config)\n"
        "record = RunRecord(policy='fcfs')\n"
    )
    assert run_loop_copies(tmp_path) == [
        "copy.py:1 build_stack(...)",
        "copy.py:2 RunRecord(...)",
    ]
