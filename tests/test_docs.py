"""The README's and PAPER's "Library sketch" is one block, and it runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_sketch(name: str) -> str:
    """The fenced ``python`` block under the ``## Library sketch`` heading of a root file."""
    section = (ROOT / name).read_text(encoding="utf-8").partition("\n## Library sketch\n")[2]
    found = re.search(r"^```python\n(.*?)^```$", section.partition("\n## ")[0],
                      re.MULTILINE | re.DOTALL)
    assert found, f"{name} has no python block under '## Library sketch'"
    return found.group(1)


def test_readme_and_paper_carry_the_same_sketch():
    assert library_sketch("README.md") == library_sketch("PAPER.md")


def test_the_sketch_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", library_sketch("README.md")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("(20.1907285564")
