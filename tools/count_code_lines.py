"""Count the code lines of Python files: lines that hold at least one token
other than a comment, leaving out blank lines, comment-only lines and the
lines of docstrings (the first statement of a module, class or function when
it is a string literal).

    python3 tools/count_code_lines.py src/qesa/*.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(paths: list[str]) -> None:
    total_code = total_raw = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        code, raw = code_lines(source), len(source.splitlines())
        total_code += code
        total_raw += raw
        print(f"{code:6d} {raw:6d}  {path}")
    print(f"{total_code:6d} {total_raw:6d}  total (code lines, wc -l lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
