"""A ``zsmiles serve`` child process: spawn, first answer, stop."""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

#: Seconds a child gets to print its URL, and to exit after SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


class ServerProcess:
    """``python -m repro.cli serve LIBRARY --port 0`` with the server's defaults.

    The server runs in its own process, as a user runs it, so client and
    server never share an interpreter lock.
    """

    def __init__(self, library: Path, root: Path):
        self.library = library
        self.root = root
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> str:
        """Spawn the child and return its URL once it prints it."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(self.library), "--port", "0"],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert self.process.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise RuntimeError(f"zsmiles serve printed no URL within {START_TIMEOUT}s")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if readable:
                break
        line = self.process.stdout.readline()
        if " at " not in line:
            self.stop()
            raise RuntimeError(f"zsmiles serve did not start: {line!r}")
        self.url = line.split(" at ", 1)[1].split()[0]
        return self.url

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if it hangs; idempotent."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
