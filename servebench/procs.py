"""Server subprocesses: pinned start, CPU and peak-RSS accounting, stop.

Every round starts fresh ``python -m repro serve`` processes so each
round sees the same cold state.  Placement is a noise control: the
servers and the load generator all run on one CPU.  Every workload is
a closed loop (the generator waits for each reply), so that CPU never
idles during a round: a request or reply wakes its receiver with a
switch on the same CPU, not a wake-up of a halted virtual CPU, whose
delay is the hypervisor's and changed from run to run.  The
generator's calibration slices (``hostspeed``) then time the very CPU
the servers run on.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: How long a starting server may take to accept its first connection.
START_TIMEOUT_S = 60.0
#: How long a server may take to drain and exit after SIGINT.
STOP_TIMEOUT_S = 15.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


@dataclass(frozen=True)
class Layout:
    """The one CPU the load generator and every server run on."""

    cpu: int
    nproc: int

    def as_dict(self) -> dict:
        return {"cpu": self.cpu, "nproc": self.nproc}


def plan_layout() -> Layout:
    """Everything on the last allowed CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return Layout(cpus[-1], len(cpus))


def pin_self(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def _child_setup(cpu: int) -> None:
    """In the forked child: pin to *cpu*, and die with the benchmark.

    ``PR_SET_PDEATHSIG`` makes the kernel kill the child if the
    benchmark process is killed before it can stop it.
    """
    os.sched_setaffinity(0, {cpu})
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class Server:
    """One ``repro serve`` subprocess listening on a Unix socket.

    The socket path is relative to the working directory, which keeps
    it short (``AF_UNIX`` paths are limited to ~108 bytes) however deep
    the checkout lies.
    """

    def __init__(
        self, root: Path, socket_path: str, log_path: Path, cpu: int,
        flags: tuple[str, ...] = (),
    ) -> None:
        self.address = socket_path
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_PARSER", None)
        with open(log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--no-tcp",
                 "--unix", socket_path, *flags],
                cwd=os.getcwd(),
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                preexec_fn=lambda: _child_setup(cpu),
            )
        self.pid = self._proc.pid
        self._log_path = log_path

    def wait_ready(self, deadline: float) -> None:
        """Block until the server accepts a connection."""
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._proc.returncode}: "
                    f"{self._log_path.read_text(errors='replace')[-2000:]}"
                )
            if os.path.exists(self.address):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.address)
                    return
                except OSError:
                    pass
                finally:
                    probe.close()
            if time.monotonic() > deadline:
                raise RuntimeError(f"server {self.address} did not start")
            time.sleep(0.002)

    def cpu_seconds(self) -> float:
        """User plus system CPU of every thread of the process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # Fields after the command name start at field 3 (state), so
        # utime (14) and stime (15) sit at offsets 11 and 12.
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def interrupt(self) -> None:
        """Ask for a graceful drain (the server's SIGINT handling)."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)

    def reap(self) -> None:
        """Wait for the exit; SIGKILL a server that lingers."""
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class ServerGroup:
    """Fresh pinned servers for one round, stopped on exit."""

    def __init__(
        self, root: Path, rundir: Path, count: int, cpu: int,
        flags: tuple[str, ...] = (),
    ) -> None:
        self.servers: list[Server] = []
        rel = os.path.relpath(rundir)
        try:
            for index in range(count):
                path = f"{rel}/s{index}.sock"
                if os.path.exists(path):
                    os.unlink(path)
                self.servers.append(
                    Server(root, path, rundir / f"s{index}.log", cpu, flags)
                )
            deadline = time.monotonic() + START_TIMEOUT_S
            for server in self.servers:
                server.wait_ready(deadline)
        except BaseException:
            self.stop()
            raise

    @property
    def addresses(self) -> list[str]:
        return [server.address for server in self.servers]

    def cpu_seconds(self) -> float:
        return sum(server.cpu_seconds() for server in self.servers)

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        for server in self.servers:
            server.interrupt()
        for server in self.servers:
            server.reap()

    def __enter__(self) -> "ServerGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
