"""Fuzzer inputs: op sequences with packet-level structure.

A :class:`FuzzInput` wraps an op sequence from a spec and knows which
ops are *packets* (data-carrying, mutable, snapshot-placeable).  "The
fuzzer is aware of the time dimension of each interaction [...] knows
about individual packets being sent and most importantly knows that
packets that were not sent yet have also not affected the program
state at all" (§4.3) — this structure is what incremental snapshot
placement operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.spec.bytecode import Op, OpSequence, serialize, validate
from repro.spec.nodes import Spec


@dataclass
class FuzzInput:
    """One test case."""

    ops: OpSequence
    #: Where this input came from ("seed", "havoc", "splice", ...).
    origin: str = "seed"
    parent_id: Optional[int] = None

    def copy(self) -> "FuzzInput":
        """A copy with its own op list; the (immutable) ops are shared."""
        return FuzzInput(list(self.ops), origin=self.origin,
                         parent_id=self.parent_id)

    # -- packet structure ----------------------------------------------------

    def packet_indices(self) -> List[int]:
        """Op indices that carry payload data (mutable packets)."""
        indices = []
        for index, op in enumerate(self.ops):
            for arg in op.args:
                if isinstance(arg, (bytes, bytearray)):
                    indices.append(index)
                    break
        return indices

    @property
    def num_packets(self) -> int:
        return len(self.packet_indices())

    def total_payload_bytes(self) -> int:
        return sum(len(a) for op in self.ops for a in op.args
                   if isinstance(a, (bytes, bytearray)))

    def payload_of(self, op_index: int) -> bytes:
        for arg in self.ops[op_index].args:
            if isinstance(arg, (bytes, bytearray)):
                return bytes(arg)
        raise ValueError("op %d carries no payload" % op_index)

    def with_payload(self, op_index: int, payload: bytes) -> None:
        """Replace op ``op_index`` with a copy whose (first) payload arg
        is ``payload``; other inputs sharing the old op keep it."""
        op = self.ops[op_index]
        new_args = []
        replaced = False
        for arg in op.args:
            if not replaced and isinstance(arg, (bytes, bytearray)):
                new_args.append(payload)
                replaced = True
            else:
                new_args.append(arg)
        if not replaced:
            raise ValueError("op %d carries no payload" % op_index)
        self.ops[op_index] = Op(op.node, op.refs, tuple(new_args))

    def validate_against(self, spec: Spec) -> None:
        validate(spec, self.ops)

    def to_bytecode(self, spec: Spec) -> bytes:
        return serialize(spec, self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FuzzInput(%d ops, %d packets, origin=%s)" % (
            len(self.ops), self.num_packets, self.origin)


def packets_input(payloads: Sequence[bytes], conn_ops: bool = True) -> FuzzInput:
    """Convenience: one connection carrying the given packets, using
    the default network spec's vocabulary."""
    ops: OpSequence = []
    if conn_ops:
        ops.append(Op("connection"))
    ops.extend(Op("packet", (0,), (bytes(p),)) for p in payloads)
    return FuzzInput(ops)
