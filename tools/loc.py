"""``make loc``: code-only lines per package -- a line counts when it holds
a token that is not a comment, a blank or part of a docstring (the number the
simplicity PRs report in CHANGES.md)."""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source, lines = path.read_text(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
counts = [(code_lines(path), path.relative_to(root)) for path in sorted(root.rglob("*.py"))]
for package in sorted({relative.parts[0] for _count, relative in counts}):
    print(f"{sum(c for c, r in counts if r.parts[0] == package):7d}  {root / package}")
print(f"{sum(count for count, _relative in counts):7d}  {root} (code-only lines)")
