#!/usr/bin/env python3
"""Count the code lines of each swigc module, and the names it exports.

    python3 scripts/code_lines.py [--root DIR]

A code line is a line that holds a token other than a comment: blank
lines, comment lines and the lines of a module, class or function
docstring do not count, and a string or bracket spread over several
lines counts each line it spans.  Reads every ``*.py`` under
``DIR/src/swigc`` (default: this checkout), without importing it, and
prints one JSON line: the count per module, by path relative to that
directory, the total, and ``exported``, the number of names listed in
the modules' ``__all__`` literals (the package's own list adds
``__version__`` to theirs).  Run it on two checkouts to compare their
size.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start (line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def exported(text: str) -> int:
    """The number of names listed in the ``__all__`` literal of the Python
    source ``text``; its starred entries are not names."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return sum(isinstance(item, ast.Constant) for item in node.value.elts)
    return 0


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    docstrings = _docstrings(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(root: Path) -> dict:
    package = root / "src" / "swigc"
    texts = {
        path.relative_to(package).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(package.rglob("*.py"))
    }
    modules = {name: code_lines(text) for name, text in texts.items()}
    names = sum(map(exported, texts.values()))
    return {"modules": modules, "total": sum(modules.values()), "exported": names}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout to count (default: this one)")
    print(json.dumps(count(p.parse_args().root)))


if __name__ == "__main__":
    main()
