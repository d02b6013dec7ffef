"""Process plumbing: the fork-server client and the per-op CLI subprocess."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ForkServer:
    """A parent process with ``rqlab.cli`` imported that forks one child per op."""

    def __init__(self, warmup: list[str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "forkserver.py"), *warmup],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("fork server exited before it was ready")
        self.import_s = json.loads(line)["import_s"]

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fork server died")
        return json.loads(line)

    def run(self, argv: list[str], trace: bool = False) -> dict:
        return self._ask({"argv": argv, "trace": trace})

    def calibrate(self) -> float:
        """Seconds the server takes for ``calibrate.kernel()`` right now."""
        return self._ask({"calibrate": True})["cal_s"]

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_cli(argv: list[str]) -> dict:
    """``python -m rqlab.cli`` as a fresh interpreter, as a user at a terminal runs it."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rqlab.cli", *argv], capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - start,
            "stdout": proc.stdout, "stderr": proc.stderr}
