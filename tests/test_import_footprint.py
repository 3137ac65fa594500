"""`import narayana` and the CLI's set-up load only the standard library the
arithmetic and the CLI use: none of `typing`, `dataclasses` or `inspect`,
which together cost about as much start-up time as the package itself; not
`json`, since the CLI writes its JSON lines itself; and not `shutil`, with
the `bz2` and `lzma` it loads, which argparse imports only to read the
terminal's width and the CLI's help formatter reads without.

The check runs in a fresh interpreter started with -S (no site packages), so
nothing pytest or a plugin imported is counted; the probe itself imports
nothing past `sys`."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("typing", "dataclasses", "inspect", "json", "shutil", "bz2", "lzma")

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import narayana
from narayana import cli
cli.build_parser()
print(narayana.__file__)
print(*[m for m in sys.argv[2:] if m in sys.modules])
"""


def test_cli_setup_imports_no_typing_dataclasses_or_inspect():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC), *UNWANTED],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    file, loaded = proc.stdout.split("\n")[:2]
    assert pathlib.Path(file).resolve().parent == SRC / "narayana"
    assert loaded == ""
