"""Fork server: import ``rqlab.cli`` once, then run each op in a forked child.

Protocol (JSON lines).  On start the server imports ``rqlab.cli``, runs the
warm-up argv given on its command line in a child, and writes
``{"ready": true, "import_s": ...}``.  Each request line
``{"argv": [...], "trace": false}`` is answered by one line
``{"exit": int, "wall_s": float, "cpu_s": float, "maxrss_kb": int,
"stdout": str, "stderr": str, "trace": dict | null}``.  A request
``{"calibrate": true}`` times ``calibrate.kernel()`` in the server itself
and is answered by ``{"cal_s": float}``.  EOF on stdin ends the server.

Every child starts from the same parent state, so each op sees a cold
spectrum store and pays no import.  ``wall_s`` runs from the fork to the
reaping of the child; the child's peak RSS comes from ``wait4``.

Run: ``PYTHONPATH=src python3 perfbench/forkserver.py [warm-up argv...]``
"""

from __future__ import annotations

import json
import os
import select
import sys
import time


def _read_all(fds: dict[int, bytearray]) -> None:
    """Drain every pipe until each reaches EOF."""
    open_fds = list(fds)
    while open_fds:
        ready, _, _ = select.select(open_fds, [], [])
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                fds[fd] += chunk
            else:
                os.close(fd)
                open_fds.remove(fd)


def run_op(argv: list[str], trace: bool = False) -> dict:
    import rqlab.cli

    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    tr_r, tr_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 70
        try:
            os.close(out_r)
            os.close(err_r)
            os.close(tr_r)
            devnull = os.open(os.devnull, os.O_RDONLY)
            os.dup2(devnull, 0)
            os.dup2(out_w, 1)
            os.dup2(err_w, 2)
            if trace:
                import tracer

                recorder = tracer.Recorder().install()
                code = recorder.call_main(rqlab.cli.main, list(argv))
                sys.stdout.flush()
                recorder.uninstall()
                with os.fdopen(tr_w, "w") as fh:
                    json.dump(recorder.summary(), fh)
            else:
                code = rqlab.cli.main(list(argv))
            sys.stdout.flush()
            sys.stderr.flush()
        except BaseException:  # report anything, then leave without cleanup
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
            code = 70
        finally:
            os._exit(code if isinstance(code, int) else 70)
    os.close(out_w)
    os.close(err_w)
    os.close(tr_w)
    bufs = {out_r: bytearray(), err_r: bytearray(), tr_r: bytearray()}
    _read_all(bufs)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": bufs[out_r].decode(),
        "stderr": bufs[err_r].decode(),
        "trace": json.loads(bufs[tr_r]) if bufs[tr_r] else None,
    }


def main() -> int:
    start = time.perf_counter()
    import rqlab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import calibrate  # after the timed import: it loads numpy too
    warmup = sys.argv[1:]
    if warmup:
        result = run_op(warmup)
        if result["exit"] != 0:
            sys.stderr.write(result["stderr"])
            return 2
    out = sys.stdout
    out.write(json.dumps({"ready": True, "import_s": import_s}) + "\n")
    out.flush()
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        if req.get("calibrate"):
            t = time.perf_counter()
            calibrate.kernel()
            reply = {"cal_s": time.perf_counter() - t}
        else:
            reply = run_op(req["argv"], req.get("trace", False))
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
