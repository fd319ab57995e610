"""Child-process lifecycle and the leak check that runs after every workload.

Each server the benchmark starts leads its own session
(``start_new_session=True``), so its pid is also the process-group id
shared by everything it spawns (fleet shards, the multiprocessing
resource tracker).  :meth:`ServerProcess.stop` sends SIGTERM, which is
the server's own drain path, and SIGKILLs the whole group if the server
has not exited after a bounded wait.

:func:`check_clean` then asserts, from ``/proc``, that no process of
those groups and no descendant of the benchmark survives, that no
socket still listens on the server's port, and that every
load-generator thread was joined.  It raises :class:`LeakError` naming
what survived.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "LeakError",
    "ProcInfo",
    "ServerProcess",
    "check_clean",
    "find_leaks",
    "listening_ports",
    "become_subreaper",
    "reap_orphans",
    "scan_processes",
    "stop_and_verify",
]

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


class LeakError(RuntimeError):
    """Something the benchmark started outlived its workload."""


@dataclass(frozen=True)
class ProcInfo:
    pid: int
    ppid: int
    pgid: int
    state: str
    command: str


def _read_proc(pid: int) -> Optional[ProcInfo]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("utf-8", "replace")
    except OSError:
        return None
    # ``comm`` sits in parentheses and may itself contain spaces or ')'.
    close = raw.rfind(")")
    fields = raw[close + 2 :].split()
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace").strip()
    except OSError:
        command = ""
    command = command or raw[raw.find("(") + 1 : close]
    return ProcInfo(pid, int(fields[1]), int(fields[2]), fields[0], command)


def scan_processes() -> Dict[int, ProcInfo]:
    """Every process visible in ``/proc``, by pid."""
    table: Dict[int, ProcInfo] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _read_proc(int(entry))
            if info is not None:
                table[info.pid] = info
    return table


def _descends_from(pid: int, root: int, table: Dict[int, ProcInfo]) -> bool:
    seen = set()
    while pid in table and pid not in seen:
        seen.add(pid)
        pid = table[pid].ppid
        if pid == root:
            return True
    return False


def find_leaks(pgids: Iterable[int] = (), root: Optional[int] = None) -> List[ProcInfo]:
    """Live processes in any of ``pgids`` or below ``root`` (not ``root`` itself).

    Zombies have exited already and are left out.
    """
    groups = set(pgids)
    table = scan_processes()
    leaks = []
    for info in table.values():
        if info.state in ("Z", "X") or info.pid == root:
            continue
        if info.pgid in groups or (root is not None and _descends_from(info.pid, root, table)):
            leaks.append(info)
    return sorted(leaks, key=lambda info: info.pid)


def listening_ports() -> set:
    """TCP ports with a socket in LISTEN state (IPv4 and IPv6)."""
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A":
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


def _prctl(option: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A shard orphaned by a killed server is then re-parented to this
    process, stays visible as a descendant, and is reaped here.
    """
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def reap_orphans() -> None:
    """Collect the exit status of any adopted child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def check_clean(
    pgids: Iterable[int] = (),
    root: Optional[int] = None,
    ports: Iterable[int] = (),
    threads: Sequence[threading.Thread] = (),
    wait_s: float = 5.0,
) -> None:
    """Raise :class:`LeakError` unless everything listed is gone.

    Processes get ``wait_s`` to finish exiting (a shard may still be
    unwinding after its server returned); threads must already be
    joined.
    """
    alive = [thread.name for thread in threads if thread.is_alive()]
    if alive:
        raise LeakError(f"load-generator threads still running: {alive}")
    pgids, ports = list(pgids), set(ports)
    deadline = time.monotonic() + wait_s
    while True:
        reap_orphans()
        leaks = find_leaks(pgids, root)
        busy = sorted(ports & listening_ports())
        if not leaks and not busy:
            return
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    problems = [f"pid {info.pid} ({info.command})" for info in leaks]
    problems += [f"port {port} still listening" for port in busy]
    raise LeakError("processes or ports survived the workload: " + "; ".join(problems))


def stop_and_verify(
    server: "ServerProcess",
    port: Optional[int],
    threads: Sequence[threading.Thread] = (),
) -> int:
    """Stop ``server``, then assert its group, port and ``threads`` are gone.

    Whatever the check finds is killed afterwards, so a failed check
    never leaves a process behind.  Returns the server's exit code.
    """
    try:
        code = server.stop()
        check_clean([server.pgid], os.getpid(), [port] if port else [], threads)
        return code
    finally:
        server.kill_group()
        reap_orphans()


class ServerProcess:
    """One ``python -m repro.serve`` child in its own session.

    Output goes to ``log_path`` rather than a pipe, so a chatty or stuck
    child can never block on a full pipe buffer.
    """

    def __init__(self, argv: Sequence[str], log_path: str, env: Dict[str, str], cwd: str) -> None:
        self.log_path = log_path
        # Resolved here, not in the forked child: the child only calls it.
        prctl = ctypes.CDLL(None, use_errno=True).prctl

        def terminate_with_parent() -> None:
            """In the child before ``exec``: SIGTERM it if the benchmark dies first."""
            prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)

        self._log = open(log_path, "wb")
        try:
            self.process = subprocess.Popen(
                list(argv),
                stdout=self._log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=cwd,
                start_new_session=True,
                # Even a SIGKILLed benchmark leaves no server behind.
                preexec_fn=terminate_with_parent,
            )
        except BaseException:
            self._log.close()
            raise
        self.pgid = self.process.pid

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def wait_for_url(self, timeout_s: float) -> str:
        """The ``http://host:port`` the server announced on its first line."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            text = self.log()
            marker = text.find(" on http://")
            if marker >= 0:
                return text[marker + 4 :].split()[0]
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before listening:\n{text}"
                )
            time.sleep(0.02)
        raise RuntimeError(f"server did not announce its address in {timeout_s}s:\n{self.log()}")

    def stop(self, term_wait_s: float = 15.0) -> int:
        """SIGTERM (graceful drain); SIGKILL the group if that takes too long.

        Returns the server's exit code.  A server that exits cleanly but
        leaves group members behind is *not* cleaned up here, so that
        :func:`check_clean` sees and reports them; call
        :meth:`kill_group` afterwards in any case.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(term_wait_s)
                except subprocess.TimeoutExpired:
                    self.kill_group()
            return self.process.wait()
        finally:
            self._log.close()

    def kill_group(self) -> None:
        """SIGKILL whatever is left of the server's process group."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
