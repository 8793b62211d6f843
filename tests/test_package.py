"""The package's public surface."""

import ast
import re
from pathlib import Path

import pimgasm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pimgasm"


def test_all_names_resolve_once():
    names = pimgasm.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(pimgasm, n)] == []


def public_defs(path: Path) -> list[str]:
    """The public names a module defines: its top-level functions, the
    methods of its top-level classes and its module-level assignments,
    leaving out dunders and names that start with an underscore."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
            continue
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(item.name)
    return [name for name in names if not name.startswith("_")]


def test_every_public_function_is_called_by_the_program():
    """Every public function, method or module constant of
    src/pimgasm/*.py is named somewhere other than its own `def` or
    assignment: in the package's code (not its __init__.py, which only
    re-exports), in perfbench/, or in the acceptance tests. Unit tests
    alone keep no API alive.

    The match is by word, so a name that something else shares (`to_json`,
    `items`, `to_dict`) passes even when the method itself is dead; the
    guard catches only names that nothing mentions at all.
    """
    corpus = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    corpus += sorted((ROOT / "perfbench").glob("*.py"))
    corpus.append(ROOT / "tests" / "test_acceptance.py")

    def strip_own_names(src: str) -> str:
        """Drop the name of every def and module-level assignment, so
        neither counts as a use."""
        src = re.sub(r"\bdef\s+\w+", "def", src)
        return re.sub(r"^\w+\s*(?::[^=\n]*)?=(?!=)", "=", src, flags=re.M)

    text = "\n".join(strip_own_names(p.read_text()) for p in corpus)
    used = set(re.findall(r"\w+", text))
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in public_defs(path)
        if name not in used
    ]
    assert unused == []
