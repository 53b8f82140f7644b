import ast
from pathlib import Path

TESTS = Path(__file__).parent


def test_refvals_holds_no_dead_reference():
    # every top-level function, class and assignment of refvals.py serves a
    # test module, directly (imported, or read as refvals.<name>) or through
    # another refvals name that does, so a reference goes with its last test
    defined = {}
    for node in ast.parse((TESTS / "refvals.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    todo = []
    for path in TESTS.glob("test_*.py"):
        text = path.read_text()
        if "refvals" not in text:
            continue
        # imports sit at the top level; only a module that imports refvals
        # itself can read refvals.<name>, so only such a module is walked
        tree = ast.parse(text)
        nodes = ast.walk(tree) if "\nimport refvals\n" in text else tree.body
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "refvals":
                todo += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "refvals":
                todo.append(node.attr)
    live = set()
    while todo:
        name = todo.pop()
        if name in defined and name not in live:
            live.add(name)
            todo += [node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name)]
    assert sorted(defined.keys() - live) == []
