"""Every public function in the package has a caller in the package.

A public module-level function or public method that no command or
simulation path uses is dead weight with its own tests. This reads the
source text with `ast`: each such name must be referenced (as a name or
an attribute) somewhere in `src/coinprune` outside `__init__.py`, or be
listed below with the reason it stays. The check is by name, so a
method passes if any object's attribute of that name is used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coinprune"

ALLOWED = {
    "appdata.AppDataStore.lookup": "acceptance criterion 7 reads preserved "
                                   "payloads back by txid",
    "chain.best_tip": "the private-fork joiner picks the most-work chain "
                      "with it",
    "scripts.decompress": "the lossless-compression oracle of the script "
                          "tests",
    "snapshot.serialize_utxo_set": "the state oracle the tests and the "
                                   "benchmark compare joined states against",
}


def _public_functions(tree: ast.Module):
    """(qualified name, bare name) of public functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _uncalled() -> set[str]:
    """module.qualified names of public functions nothing references."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    used: set[str] = set()
    for stem, tree in modules.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{stem}.{qualified}"
            for stem, tree in modules.items()
            for qualified, bare in _public_functions(tree)
            if bare not in used}


def test_every_public_function_has_a_caller():
    uncalled = sorted(_uncalled() - ALLOWED.keys())
    assert not uncalled, f"public functions without a caller: {uncalled}"


def test_allowlist_holds_only_uncalled_functions():
    # an allowlisted name that was deleted or gained a caller goes too
    stale = sorted(ALLOWED.keys() - _uncalled())
    assert not stale, f"allowlisted but defined and called, or gone: {stale}"
