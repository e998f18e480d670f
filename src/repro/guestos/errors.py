"""Errno values, syscall errors and crash reports for the guest OS."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class Errno(enum.IntEnum):
    """The subset of POSIX errno values the guest kernel uses."""

    EPERM = 1
    ENOENT = 2
    EBADF = 9
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EEXIST = 17
    EINVAL = 22
    EMFILE = 24
    ENOSPC = 28
    EPIPE = 32
    ENOTSOCK = 88
    EADDRINUSE = 98
    ENETUNREACH = 101
    ECONNRESET = 104
    ENOTCONN = 107
    ESHUTDOWN = 108
    ECONNREFUSED = 111
    EISCONN = 106


class GuestError(Exception):
    """A syscall failure, carrying the errno a real kernel would set.

    Raised (and immediately caught) on hot polling paths — every empty
    ``accept``/``recv`` attempt ends in an EAGAIN — so construction
    stores the raw parts and defers message formatting to the rare
    moment something actually prints the error.
    """

    def __init__(self, errno: Errno, message: str = "") -> None:
        self.errno = errno
        self.message = message

    def __str__(self) -> str:
        return "%s%s" % (self.errno.name,
                         (": " + self.message) if self.message else "")


class EmptyPoll(GuestError):
    """EAGAIN from a poll that found nothing to take.

    Raised by class (``raise NoPendingConnection``).  ``errno`` and
    ``message`` are class attributes and the constructor is
    ``Exception``'s own, in C, so the scheduler's empty polls — several
    per exec — run no Python frame to build their error.
    """

    __init__ = Exception.__init__
    errno = Errno.EAGAIN


class NoPendingConnection(EmptyPoll):
    """``accept`` on a listener with an empty queue."""

    message = "no pending connections"


class NoFuzzPacket(EmptyPoll):
    """``recv`` on a hooked connection with no packet queued."""

    message = "no fuzz packet pending"


class CrashKind(enum.Enum):
    """Classes of crash the guest can report, mirroring real signals
    and sanitizer verdicts."""

    SEGV = "segv"
    ABORT = "abort"
    OOM = "oom"
    ASAN_HEAP_OVERFLOW = "asan-heap-overflow"
    ASAN_OOB_READ = "asan-oob-read"
    ASAN_USE_AFTER_FREE = "asan-use-after-free"
    NULL_DEREF = "null-deref"
    INTEGER_UNDERFLOW = "integer-underflow"
    #: Not a crash: a goal event (e.g. a solved Mario level) reported
    #: through the same channel so campaigns can record its timestamp.
    SOLVED = "solved"

    @property
    def asan_only(self) -> bool:
        """Whether this crash is only *reliably* observable under ASAN.

        Models the paper's dcmtk case (Table 1): without ASAN, the
        memory corruption only sometimes manifests, depending on the
        initial heap layout.
        """
        return self in (CrashKind.ASAN_HEAP_OVERFLOW,
                        CrashKind.ASAN_OOB_READ,
                        CrashKind.ASAN_USE_AFTER_FREE)


class GuestCrash(Exception):
    """Raised by target code to signal a memory-safety violation.

    The kernel converts it into a :class:`CrashReport` and a PANIC
    hypercall.  ``bug_id`` identifies the planted bug so the evaluation
    can deduplicate crashes the way the paper's triage does.
    """

    def __init__(self, kind: CrashKind, bug_id: str, detail: str = "") -> None:
        super().__init__("%s in %s%s" % (kind.value, bug_id,
                                         (": " + detail) if detail else ""))
        self.kind = kind
        self.bug_id = bug_id
        self.detail = detail


@dataclass(frozen=True)
class CrashReport:
    """Host-side record of a guest crash."""

    kind: CrashKind
    bug_id: str
    pid: int
    detail: str = ""
    #: Coverage-bitmap-style tuple identifying the crash site.
    site: Optional[Tuple[str, int]] = None

    @property
    def dedup_key(self) -> str:
        """Key used to count unique bugs (paper triage granularity)."""
        return "%s:%s" % (self.kind.value, self.bug_id)
