"""List the library functions that no demo and no CLI command reaches.

    python tools/line_hits.py

Runs the four demos and eight CLI invocations in this process under a
``sys.settrace`` collector of function calls, imports included, and
prints each function or method of ``src/bgedist`` (nested ones too)
that none of them called: those have no caller but the tests, or none.
"""

import ast
import contextlib
import io
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "bgedist"
GLASS = str(ROOT / "data" / "glass_fibre.txt")
CLI_RUNS = (["reproduce"], ["fit", "--input", GLASS],
            ["fit", "--input", GLASS, "--format", "structured"],
            ["compare", "--input", GLASS], ["compare", "--input", GLASS, "--format", "structured"],
            ["sample", "--params", "2,3,1,1.5", "--n", "100", "--seed", "1"],
            ["curve", "--params", "2,3,1,1.5"],
            ["curve", "--params", "1,2,1,1", "--sweep", "a", "--grid", "0.5:5:10"])


def functions(node, prefix=""):
    """(first line of the code object, qualified name) of each def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
            yield from functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")


def main() -> None:
    called = set()
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(lambda frame, event, arg: called.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            from bgedist.cli import main as cli_main
            for argv in CLI_RUNS:
                cli_main(argv, out=io.StringIO())
    finally:
        sys.settrace(None)
    missed = [f"{path.name}:{line} {name}" for path in sorted(LIB.glob("*.py"))
              for line, name in functions(ast.parse(path.read_text()))
              if (str(path), line) not in called]
    print("\n".join(missed + [f"{len(missed)} library functions reached by no demo and no CLI command"]))


if __name__ == "__main__":
    main()
