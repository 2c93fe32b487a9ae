"""Count the code lines of Python sources: lines that hold at least one
token other than a comment, with blank lines, comments and docstrings
(and any other statement that is only a string literal) left out.

    python scripts/sloc.py src/repro/service src/repro/core/history.py

Prints one ``<lines> <path>`` row per argument (a file, or a directory
searched recursively for ``*.py``) and a ``<lines> total`` row.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def string_statement_lines(tree: ast.AST) -> Set[int]:
    """Lines of every statement that is a bare string literal."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    doc = string_statement_lines(ast.parse(source))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                    if line not in doc)
    return len(code)


def python_files(path: Path) -> List[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def count(paths: Iterable[str]) -> List[tuple]:
    rows = []
    for p in paths:
        n = sum(count_source(f.read_text(encoding="utf-8"))
                for f in python_files(Path(p)))
        rows.append((n, p))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", help="files or directories")
    args = ap.parse_args(argv)
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        ap.error(f"no such path: {', '.join(missing)}")
    rows = count(args.paths)
    for n, p in rows:
        print(f"{n:7d} {p}")
    print(f"{sum(n for n, _ in rows):7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
