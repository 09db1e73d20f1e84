"""Print the src/ssae line budget: for each module, all lines; code lines (a
token that is not a comment, outside docstrings); docstring lines (module,
class, def).

    python tools/line_budget.py
"""
import ast, io, pathlib, tokenize
skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
totals = [0, 0, 0]
print(f"{'module':<14}{'lines':>7}{'code':>7}{'doc':>7}")
for path in sorted((pathlib.Path(__file__).absolute().parents[1] / "src" / "ssae").glob("*.py")):
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = [len(text.splitlines()), len(code - doc), len(doc)]
    totals = [t + c for t, c in zip(totals, counts)]
    print(f"{path.name:<14}" + "".join(f"{c:>7}" for c in counts))
print(f"{'src/ssae':<14}" + "".join(f"{c:>7}" for c in totals))
