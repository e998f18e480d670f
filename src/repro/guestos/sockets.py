"""Guest socket objects and the loopback network.

Sockets are pure-state objects (picklable, no kernel references): the
fd tables reference them by socket id and the kernel resolves ids
through its registry.  Stream buffers keep per-``send()`` chunk
boundaries, because the paper's emulation layer deliberately preserves
them ("a frightening amount of servers assume that a single call to
recv() will never return data from more than one packet", §3.3); the
*real* network path may coalesce chunks like TCP does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.guestos.errors import NoSocketData

#: Marker peer id for connections whose other end is outside the VM
#: (the fuzzer acting as a remote client/server).
EXTERNAL_PEER = -1


class SockDomain(enum.Enum):
    INET = "AF_INET"
    UNIX = "AF_UNIX"


class SockType(enum.Enum):
    STREAM = "SOCK_STREAM"
    DGRAM = "SOCK_DGRAM"


class SockState(enum.Enum):
    NEW = "new"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    SHUTDOWN = "shutdown"
    CLOSED = "closed"


Address = Union[int, str]  # TCP/UDP port number or unix socket path


@dataclass
class Chunk:  # nyx: state[memory]
    """One send()'s worth of data, optionally with a datagram source."""

    data: bytes
    source: Optional[Address] = None


@dataclass
class Socket:  # nyx: state[memory]
    """Pure-state socket object; identity is the socket id ``sid``."""

    sid: int
    domain: SockDomain
    type: SockType
    state: SockState = SockState.NEW
    bound_addr: Optional[Address] = None
    #: Socket ids of fully established, not-yet-accepted connections.
    accept_queue: List[int] = field(default_factory=list)
    backlog: int = 0
    #: Received data, in chunks with boundaries preserved.
    recv_buf: List[Chunk] = field(default_factory=list)
    #: Peer socket id, EXTERNAL_PEER, or None.
    peer: Optional[int] = None
    #: Default destination for connected datagram sockets.
    dgram_dest: Optional[Address] = None
    #: True once the peer closed or shut down its write side.
    peer_closed: bool = False
    #: Open file descriptions referencing this socket (dup/fork).
    refcount: int = 1
    #: Total bytes ever received/sent (diagnostics, state churn).
    bytes_in: int = 0
    bytes_out: int = 0

    # -- receive-side helpers (called by the kernel) -------------------------

    def deliver(self, data: bytes, source: Optional[Address] = None,
                coalesce: bool = False) -> None:
        """Append incoming data.

        ``coalesce=True`` models the real TCP path merging adjacent
        stream segments; the emulated path always preserves boundaries.
        """
        self.bytes_in += len(data)
        if (coalesce and self.type is SockType.STREAM and self.recv_buf
                and self.recv_buf[-1].source == source):
            last = self.recv_buf[-1]
            last.data += data
        else:
            self.recv_buf.append(Chunk(data, source))

    def readable(self) -> bool:
        """Whether recv() would return without blocking."""
        if self.state is SockState.LISTENING:
            return bool(self.accept_queue)
        return bool(self.recv_buf) or self.peer_closed

    def take_chunk(self, max_bytes: int) -> Tuple[bytes, Optional[Address]]:
        """Pop up to ``max_bytes`` of the next chunk.

        Stream semantics: never returns data across a chunk boundary
        (the emulation-layer guarantee).  Datagram semantics: a short
        read truncates the datagram, as UDP does.
        """
        if not self.recv_buf:
            if self.peer_closed:
                return b"", None  # orderly EOF
            raise NoSocketData
        chunk = self.recv_buf[0]
        if self.type is SockType.DGRAM or len(chunk.data) <= max_bytes:
            self.recv_buf.pop(0)
            return chunk.data[:max_bytes], chunk.source
        head = chunk.data[:max_bytes]
        chunk.data = chunk.data[max_bytes:]
        return head, chunk.source
