"""Shared guest programs and fixtures used across the test suite.

These live in an importable module (not inside test functions) because
processes — programs included — are pickled into guest memory.
"""

from __future__ import annotations

from repro.guestos.errors import Errno, GuestError
from repro.guestos.kernel import Kernel
from repro.guestos.process import Program
from repro.guestos.sockets import SockDomain, SockType
from repro.vm.machine import Machine


class EchoServer(Program):
    """Accepts TCP connections on a port and echoes chunks back,
    prefixing each with a running counter (observable state)."""

    name = "echo"

    def __init__(self, port: int = 7) -> None:
        self.port = port
        self.listen_fd = None
        self.conns = []
        self.counter = 0
        self.seen = []

    def on_start(self, api) -> None:
        self.listen_fd = api.socket(SockDomain.INET, SockType.STREAM)
        api.bind(self.listen_fd, self.port)
        api.listen(self.listen_fd)

    def poll(self, api) -> None:
        try:
            fd = api.accept(self.listen_fd)
            self.conns.append(fd)
        except GuestError as err:
            if err.errno is not Errno.EAGAIN:
                raise
        for fd in list(self.conns):
            try:
                data = api.recv(fd)
            except GuestError as err:
                if err.errno is Errno.EAGAIN:
                    continue
                raise
            if data == b"":
                api.close(fd)
                self.conns.remove(fd)
                continue
            self.counter += 1
            self.seen.append(data)
            api.send(fd, b"%d:" % self.counter + data)


class ForkingEchoServer(Program):
    """Echo server that forks a worker per connection (bftpd-style)."""

    name = "forking-echo"

    def __init__(self, port: int = 7) -> None:
        self.port = port
        self.listen_fd = None

    def on_start(self, api) -> None:
        self.listen_fd = api.socket(SockDomain.INET, SockType.STREAM)
        api.bind(self.listen_fd, self.port)
        api.listen(self.listen_fd)

    def poll(self, api) -> None:
        try:
            fd = api.accept(self.listen_fd)
        except GuestError as err:
            if err.errno is Errno.EAGAIN:
                return
            raise
        api.fork_child(EchoWorker(fd))
        api.close(fd)


class EchoWorker(Program):
    """Child process serving one accepted connection."""

    name = "echo-worker"

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.done = False

    def poll(self, api) -> None:
        if self.done:
            return
        try:
            data = api.recv(self.fd)
        except GuestError as err:
            if err.errno is Errno.EAGAIN:
                return
            raise
        if data == b"":
            api.close(self.fd)
            self.done = True
            api.exit(0)
            return
        api.send(self.fd, b"worker:" + data)


class FileWriter(Program):
    """Writes every received chunk to a guest file (state AFLNet would
    need a cleanup script to undo)."""

    name = "file-writer"

    def __init__(self, port: int = 9000, path: str = "/srv/upload.bin") -> None:
        self.port = port
        self.path = path
        self.listen_fd = None
        self.conn_fd = None

    def on_start(self, api) -> None:
        self.listen_fd = api.socket(SockDomain.INET, SockType.STREAM)
        api.bind(self.listen_fd, self.port)
        api.listen(self.listen_fd)

    def poll(self, api) -> None:
        if self.conn_fd is None:
            try:
                self.conn_fd = api.accept(self.listen_fd)
            except GuestError as err:
                if err.errno is Errno.EAGAIN:
                    return
                raise
        try:
            data = api.recv(self.conn_fd)
        except GuestError as err:
            if err.errno is Errno.EAGAIN:
                return
            raise
        if data:
            fd = api.open(self.path, create=True)
            api.write(fd, data)
            api.close(fd)


def make_machine(memory_mb: int = 16) -> Machine:
    return Machine(memory_bytes=memory_mb * 1024 * 1024)


def boot_echo(port: int = 7):
    """Machine + kernel with a running echo server, root snapshot taken."""
    machine = make_machine()
    kernel = Kernel(machine)
    kernel.spawn(EchoServer(port))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    return machine, kernel


# -- plain code shapes for the coverage tests, which trace them through
#    repro.coverage.instrument.load("tests.helpers") -------------------------

def straight() -> int:
    x = 1
    return x + 1


def branchy(flag: bool) -> str:
    if flag:
        return "yes"
    return "no"


def loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


# -- the 22-packet lightftp session seed (anchors and chain tests) ----------

#: One full anonymous FTP session: a long message exchange, the regime
#: overlay snapshot chains exist for.
DEEP_SESSION = tuple(
    cmd + b"\r\n" for cmd in (
        b"USER anonymous", b"PASS guest", b"SYST", b"FEAT", b"PWD",
        b"TYPE I", b"CWD /srv/ftp", b"LIST", b"SIZE readme.txt",
        b"RETR readme.txt", b"MKD upload", b"CWD upload", b"PWD",
        b"CDUP", b"STAT", b"NOOP", b"HELP", b"SIZE motd",
        b"RETR motd", b"DELE upload", b"LIST", b"QUIT",
    ))


def deep_session_input():
    """The session seed as a :class:`FuzzInput` (fresh copy)."""
    from repro.fuzz.input import packets_input
    return packets_input(list(DEEP_SESSION))
