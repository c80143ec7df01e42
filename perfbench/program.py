"""The program under test: importing it from this checkout, running its
CLI in hermetic child processes, and the facts that identify a run."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 60
# The cheapest op; it measures interpreter and package start-up.
STARTUP_ARGS = ("sep", "--order", "1", "--index", "0")
REFERENCE = Path(__file__).resolve().with_name("reference.py")


def import_package():
    """Import ``hessenbergian`` from this checkout's ``src``, never from
    an installed copy, so the benchmark always measures these sources."""
    init = (ROOT / "src" / "hessenbergian" / "__init__.py").resolve()
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout "
                         f"that holds the package sources")
    sys.path.insert(0, str(init.parent.parent))
    import hessenbergian
    if Path(hessenbergian.__file__).resolve() != init:
        raise SystemExit(f"error: imported {hessenbergian.__file__}, "
                         f"expected {init}")
    return hessenbergian


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class OpResult:
    latency_s: float
    returncode: Optional[int]  # None when the op hit OP_TIMEOUT_S
    stdout: str
    stderr: str
    maxrss_kib: int = 0


class CliRunner:
    """Runs ``python -m hessenbergian ...`` ops and ``reference.py``
    processes, one child at a time.

    Children are spawned by ``launcher.py``, started here while this
    process is still small, so each child's max RSS is its own.  The
    child sees the absolute ``src`` directory of the imported package on
    ``PYTHONPATH`` and runs in a fresh empty directory, so neither the
    caller's working directory nor an installed copy can leak in.
    numpy/BLAS thread pools are capped at the CPUs this process may use.
    Close the runner to stop the launcher.
    """

    def __init__(self, package, workdir: Path):
        self.workdir = workdir
        threads = str(nproc())
        env = dict(os.environ,
                   PYTHONPATH=str(Path(package.__file__).resolve().parent.parent),
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, args: Sequence[str]) -> OpResult:
        """One CLI op: ``python -m hessenbergian *args``."""
        return self._spawn([sys.executable, "-m", "hessenbergian", *args])

    def reference(self) -> float:
        """Wall time of one ``reference.py`` process (see that file)."""
        result = self._spawn([sys.executable, str(REFERENCE)])
        if result.returncode != 0:
            raise RuntimeError(f"the reference process failed: {result.stderr}")
        return result.latency_s

    def _spawn(self, argv: Sequence[str]) -> OpResult:
        cwd = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            out_path, err_path = cwd / "stdout", cwd / "stderr"
            request = {"args": list(argv),
                       "cwd": str(cwd), "stdout": str(out_path),
                       "stderr": str(err_path), "timeout": OP_TIMEOUT_S}
            self.launcher.stdin.write(json.dumps(request) + "\n")
            self.launcher.stdin.flush()
            reply = self.launcher.stdout.readline()
            if not reply:
                raise RuntimeError("the op launcher exited")
            reply = json.loads(reply)
            return OpResult(reply["latency_s"], reply["returncode"],
                            out_path.read_text(encoding="utf-8", errors="replace"),
                            err_path.read_text(encoding="utf-8", errors="replace"),
                            reply["maxrss_kib"])
        finally:
            shutil.rmtree(cwd)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    # read .git directly: the benchmark may run in an export with no .git
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(seed: int) -> dict:
    import numpy
    return {"nproc": nproc(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": seed}
