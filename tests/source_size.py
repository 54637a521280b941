"""The size of ``src/cbopt``: lines and code lines of each module, optional
parameters and ``raise`` statements.

    python tests/source_size.py [SRC]

SRC is the package directory, ``src/cbopt`` of this checkout by default.
A code line holds a token that is not a comment and lies outside every
docstring; so blank lines, comment-only lines and docstring lines do not
count. A docstring here is any statement that is a string literal alone:
a module's, class's or function's, and the one that documents a field.
An optional parameter is a parameter with a default, over every ``def``.
The script measures; it checks nothing.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cbopt"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def measure(text: str) -> dict:
    """Lines, code lines, optional parameters and raise statements of one module."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {
        "lines": len(text.splitlines()),
        "code": len(code - docstrings),
        "optional": sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
                        for f in functions),
        "raise": sum(isinstance(node, ast.Raise) for node in ast.walk(tree)),
    }


def main(argv) -> int:
    src = Path(argv[0]) if argv else SRC
    total = dict.fromkeys(("lines", "code", "optional", "raise"), 0)
    print(f"{'lines':>6s} {'code':>6s}  module")
    for path in sorted(src.glob("*.py")):
        counts = measure(path.read_text())
        total = {key: total[key] + counts[key] for key in total}
        print(f"{counts['lines']:6d} {counts['code']:6d}  {path.name}")
    print(f"{total['lines']:6d} {total['code']:6d}  total")
    print(total["optional"], "optional parameters")
    print(total["raise"], "raise statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
