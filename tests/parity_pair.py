"""Compare the ``parity.py`` digests of two polydiff trees under several interpreters.

    python3 tests/parity_pair.py OLD_SRC NEW_SRC

Runs this checkout's ``tests/parity.py`` once with each ``src`` directory on
``PYTHONPATH``, each time from a fresh temporary directory (the script writes
the catalogue's node files into its working directory).  It does so under the
running interpreter and under the newest pyenv build of each of Python 3.10 to
3.13 (in ``$PYENV_ROOT/versions``, ``~/.pyenv/versions`` by default).  For each
interpreter it prints how many digests differ and their labels; a minor
version with no build is named and skipped.  argparse's usage and error texts
differ between Python versions, so byte identity holds per interpreter only.
Exit code 1 if any digest differs or a run fails, else 0.

Standard library only; pytest does not collect it.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

PARITY = Path(__file__).resolve().parent / "parity.py"
MINORS = ("3.10", "3.11", "3.12", "3.13")


def interpreters() -> list[tuple[str, str]]:
    """(name, executable) for the running interpreter and the newest pyenv build of each of MINORS."""
    found = [(f"running {sys.version.split()[0]}", sys.executable)]
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for minor in MINORS:
        builds = sorted((p for p in versions.glob(f"{minor}.*") if p.name[len(minor) + 1:].isdecimal()),
                        key=lambda p: int(p.name[len(minor) + 1:]))
        exe = builds[-1] / "bin" / "python3" if builds else None
        if exe and exe.exists():
            found.append((builds[-1].name, str(exe)))
        else:
            print(f"{minor}: no build found, skipped")
    return found


def digests(python: str, src: Path) -> dict[str, str]:
    """label -> digest of one ``parity.py`` run with ``src`` on the path."""
    with tempfile.TemporaryDirectory() as work:
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([python, str(PARITY)], cwd=work, env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"parity.py failed under {python} with {src}:\n{run.stderr}")
    return {label: digest for digest, _, label in (line.partition("  ") for line in run.stdout.splitlines())}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    failed = False
    for name, python in interpreters():
        try:
            old, new = digests(python, old_src), digests(python, new_src)
        except RuntimeError as exc:
            print(f"{name}: {exc}")
            failed = True
            continue
        differ = [label for label in {**old, **new} if old.get(label) != new.get(label)]
        print(f"{name}: {len(differ)} of {len(new)} digests differ")
        print("".join(f"  {label}\n" for label in differ), end="")
        failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
