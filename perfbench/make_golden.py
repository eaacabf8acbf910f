"""Regenerate golden_cli.json from the CLI of the current checkout.

    python3 perfbench/make_golden.py

Run it only when a change to the CLI output is intended, and say so in
CHANGES.md: the golden digests are what cli_files checks fixture output
against.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=HERE / "out"))
    try:
        for label, (code, digest) in sorted(workloads.write_golden(tmp, SRC).items()):
            print(f"{code}  {digest[:16]}  {label}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
