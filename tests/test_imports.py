"""The package's source: its import graph and raised exception types, read with ``ast``,
and its line length."""

import ast
from pathlib import Path

import prodbmo


def _package_imports():
    """module -> [(imported package module, imported at module level)], from every
    ``from .x import ...`` and ``from . import x`` at any nesting level."""
    graph = {}
    for path in sorted(Path(prodbmo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        graph[path.stem] = [
            (name, id(node) in top) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])]
    return graph


def test_import_graph_is_module_level_acyclic_and_hilbert_reads_only_errors():
    graph = _package_imports()
    assert [(m, dep) for m, deps in graph.items() for dep, top in deps if not top] == []
    edges = {m: {dep for dep, _ in deps} for m, deps in graph.items()}
    done = set()
    while len(done) < len(edges):  # peel off the modules whose imports are all done
        ready = {m for m, deps in edges.items() if m not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(edges) - done)}"
        done |= ready
    assert edges["hilbert"] == {"errors"}


def test_no_source_line_is_longer_than_99_columns():
    long = [f"{path.name}:{i}" for path in sorted(Path(prodbmo.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert long == []


def test_every_raise_names_an_error_class_of_the_package():
    """A raised exception outside prodbmo.errors and argparse.ArgumentTypeError escapes the
    CLI's exit-code mapping as a traceback; a bare re-raise keeps the caught type."""
    src = Path(prodbmo.__file__).parent
    allowed = {node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    stray = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed
                    or ast.unparse(exc) == "argparse.ArgumentTypeError"):
                stray.append(f"{path.name}:{node.lineno} raise {ast.unparse(exc)}")
    assert stray == []
