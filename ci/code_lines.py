"""Code lines of Python files: the lines that hold a token other than a
comment, a newline or an indent, leaving out docstrings (the first
string statement of a module, class or function). A token that spans
lines, such as a multi-line string, counts each of its lines.

Run from the repository root:

    python ci/code_lines.py [FILE ...]

It prints each file's count and then the total; with no FILE it counts
src/dagic/*.py. It gates nothing.
"""
import ast, sys, tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstrings(tree):
    """The (line, column) starts of the tree's docstrings."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    with open(path, "rb") as fh:
        skip = docstrings(ast.parse(fh.read(), filename=str(path)))
        fh.seek(0)
        lines = set()
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT and tok.start not in skip:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


paths = sys.argv[1:] or sorted(Path("src/dagic").glob("*.py"))
total = 0
for path in paths:
    count = code_lines(path)
    total += count
    print(f"{count:6d}  {path}")
print(f"{total:6d}  total")
