"""The statement lines of ``polydiff`` that the CLI's traffic never executes.

Runs every call that ``parity.py`` digests (the benchmark's catalogue, the
floating-field ``--pinv`` and ``weights --format json`` requests, the six
``experiment`` CSVs, ``verify`` and the parse edge cases) in process under
``sys.settrace``, with tracing on before ``polydiff`` is imported, so module
bodies count too.  Then prints each line of the package that carries code but
never ran, as ``module.py:line: text``, and the totals on stderr.  A line counts as carrying code when the compiled
module attributes an instruction to it, so a ``def`` line runs at import and a
function never called shows only its body.

Run it with the polydiff to census on ``PYTHONPATH``; the catalogue's input
files go to a temporary directory::

    PYTHONPATH=src python3 tests/census.py

Standard library only; pytest does not collect it.
"""

import importlib.util
import os
import sys
import tempfile
from pathlib import Path


def code_lines(path: Path) -> set[int]:
    """The lines of one source file that some instruction of its compiled code sits on."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0 and None: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def census() -> list[str]:
    spec = importlib.util.find_spec("polydiff")   # found, not imported
    if spec is None:
        print("census.py: polydiff is not on the path; run it as PYTHONPATH=src python3 tests/census.py",
              file=sys.stderr)
        sys.exit(2)
    package = os.path.dirname(spec.origin)
    hit = {os.path.join(package, name): set() for name in sorted(os.listdir(package)) if name.endswith(".py")}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in hit else None)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            cwd = os.getcwd()
            os.chdir(scratch)
            try:
                import parity   # imports polydiff, under the trace
                parity.listing()
            finally:
                os.chdir(cwd)
    finally:
        sys.settrace(None)
    out = []
    for name, ran in hit.items():
        path = Path(name)
        text = path.read_text().splitlines()
        out += [f"{path.name}:{line}: {text[line - 1].strip()}" for line in sorted(code_lines(path) - ran)]
    return out


if __name__ == "__main__":
    unexecuted = census()
    print("\n".join(unexecuted))
    print(f"{len(unexecuted)} statement lines never executed", file=sys.stderr)
