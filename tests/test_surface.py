"""Every public name of the package is reached by the program, or is kept
for a stated reason.

A public module-level function or class, or a public method of a public
class, is reached when a ``Name``, an ``Attribute`` or an import refers to
it from the package (outside its own definition, and not as a re-export in
an ``__init__``), from ``tools/``, from the benchmark's non-test files, or
from the acceptance criteria. Unit tests do not count: a name that only
they reach is package code that no result needs.

Each name kept is a dense reference, so some other test file must still
compare against it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uhlmann_lab"

# Unreached names kept on purpose, with the reason: each is the dense
# reference that a unit test compares a factored or fast path against.
KEEP = {
    "cross_operator": "dense reference for the factored canonical Uhlmann solve",
    "sgn_eta": "dense thresholding, the reference for the factored canonical Uhlmann solve",
    "kraus_operators": "Kraus form of a channel, the reference for push_factor",
    "check_trace_preserving": "the isometry's column-norm check of a channel",
    "check_completes": "checks that a completion is unitary and agrees with W",
    "pauli_action": "Pauli index maps, the reference for the Clifford's tableau draw",
    "reduced_b": "the B marginal, the reference for the factored reduced states",
}


def _public_names() -> set:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def _references(tree) -> set:
    """The names a Name, Attribute or import node refers to, outside the
    definition of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name.split(".")[-1] if isinstance(node, ast.alias) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _reaching_files() -> list:
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tools").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def test_every_public_name_is_reached_or_kept_for_a_reason():
    reached = set()
    for path in _reaching_files():
        reached |= _references(ast.parse(path.read_text()))
    unreached = _public_names() - reached
    assert unreached == set(KEEP), (
        f"reached by unit tests only: {sorted(unreached - set(KEEP))}; "
        f"kept but now reached: {sorted(set(KEEP) - unreached)}")


def test_every_kept_name_is_referenced_by_another_test_file():
    referenced = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        if path.name != Path(__file__).name:
            referenced |= _references(ast.parse(path.read_text()))
    assert set(KEEP) <= referenced, f"kept for no test: {sorted(set(KEEP) - referenced)}"
