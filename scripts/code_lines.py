"""Count the code lines of each module of the stochlang package.

A code line is a line that holds a token other than a comment, outside
every docstring. Docstrings (of the module, its classes and its functions)
are found by their line ranges in the syntax tree; comments and blank lines
by the tokenizer. Prints one line per module and the total.

Usage: python scripts/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "stochlang"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docs)


def main(package: Path = PACKAGE) -> None:
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
