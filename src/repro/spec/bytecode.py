"""Flat bytecode serialization and affine-type validation of op
sequences.

Wire format (little endian)::

    header:  magic "NYXR" | u32 spec checksum | u32 op count
    op:      u16 node_id | operand refs (u16 each, borrows then
             consumes) | data fields (per the node's data types)

Operand refs index into the sequence of *values* produced so far (in
output order across all previous ops).  The special snapshot marker op
(node id 0xFFFF) carries no operands or data.

``validate`` enforces the affine rules: refs must exist, must have the
right edge type, and consumed values must not be used again.  Snapshot
markers must be *interior*: never the first or last op, and never
duplicated back to back (``normalize_markers`` repairs all three).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.spec.nodes import Spec, SpecError

MAGIC = b"NYXR"


@dataclass(frozen=True)
class Op:
    """One opcode instance in an input.

    Immutable, so inputs share unchanged ops: a mutated copy replaces
    the ops it changes and keeps the rest, and prefix comparisons
    between related inputs mostly end at an identity check.
    """

    node: str
    #: Operand value indices (borrows then consumes).
    refs: Tuple[int, ...] = ()
    #: Data field values, matching the node type's data types.
    args: Tuple[Any, ...] = ()

    def is_snapshot_marker(self) -> bool:
        return self.node == "snapshot"


#: An input is simply a list of ops.
OpSequence = List[Op]

#: The fuzzer-injected snapshot marker (not part of any spec).
SNAPSHOT_OP = Op("snapshot")


def validate(spec: Spec, ops: Sequence[Op]) -> List[Tuple[int, str]]:
    """Type-check an op sequence against the spec.

    Returns the list of (value index, edge type name) produced, in
    order.  Raises :class:`SpecError` on any violation.
    """
    values: List[Tuple[int, str]] = []  # (producing op index, edge name)
    consumed: set = set()
    seen_real_op = False
    prev_was_marker = False
    for op_index, op in enumerate(ops):
        if op.is_snapshot_marker():
            if op.refs or op.args:
                raise SpecError("snapshot marker carries no operands")
            if not seen_real_op:
                raise SpecError(
                    "op %d: snapshot marker before any op (nothing to "
                    "snapshot)" % op_index)
            if prev_was_marker:
                raise SpecError(
                    "op %d: consecutive duplicate snapshot markers"
                    % op_index)
            prev_was_marker = True
            continue
        prev_was_marker = False
        seen_real_op = True
        node = spec.node_by_name(op.node)
        expected = list(node.borrows) + list(node.consumes)
        if len(op.refs) != len(expected):
            raise SpecError(
                "op %d (%s): %d operand refs, expected %d"
                % (op_index, op.node, len(op.refs), len(expected)))
        for ref, edge in zip(op.refs, expected):
            if not 0 <= ref < len(values):
                raise SpecError(
                    "op %d (%s): ref %d out of range" % (op_index, op.node, ref))
            if values[ref][1] != edge.name:
                raise SpecError(
                    "op %d (%s): ref %d has type %s, expected %s"
                    % (op_index, op.node, ref, values[ref][1], edge.name))
            if ref in consumed:
                raise SpecError(
                    "op %d (%s): ref %d already consumed (affine violation)"
                    % (op_index, op.node, ref))
        n_borrows = len(node.borrows)
        for ref in op.refs[n_borrows:]:
            consumed.add(ref)
        if len(op.args) != len(node.data):
            raise SpecError(
                "op %d (%s): %d data args, expected %d"
                % (op_index, op.node, len(op.args), len(node.data)))
        for _ in node.outputs:
            values.append((op_index, _.name))
    if prev_was_marker:
        raise SpecError(
            "trailing snapshot marker (no op left to resume into)")
    return values


def normalize_markers(ops: Sequence[Op]) -> OpSequence:
    """Return ``ops`` with snapshot markers normalized.

    At most one marker survives — the *last* interior one (later
    snapshot points retain more of the prefix-skipping benefit, and
    with several markers the executor's final snapshot is the last
    one anyway).  Markers before the first real op, after the last
    real op, or duplicated are dropped.  Real ops are untouched.
    """
    real = [i for i, op in enumerate(ops) if not op.is_snapshot_marker()]
    if not real:
        return []
    interior = [i for i, op in enumerate(ops)
                if op.is_snapshot_marker() and real[0] < i < real[-1]]
    keep = interior[-1] if interior else None
    return [op for i, op in enumerate(ops)
            if not op.is_snapshot_marker() or i == keep]


def serialize(spec: Spec, ops: Sequence[Op]) -> bytes:
    """Serialize a validated op sequence to flat bytecode."""
    validate(spec, ops)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", spec.checksum(), len(ops))
    for op in ops:
        if op.is_snapshot_marker():
            out += struct.pack("<H", Spec.SNAPSHOT_NODE_ID)
            continue
        node = spec.node_by_name(op.node)
        out += struct.pack("<H", node.node_id)
        for ref in op.refs:
            out += struct.pack("<H", ref)
        for dtype, value in zip(node.data, op.args):
            out += dtype.pack(value)
    return bytes(out)


def parse(spec: Spec, blob: bytes) -> OpSequence:
    """Decode flat bytecode into an op sequence *without* validating.

    Structural corruption — a short header, a node id past the spec,
    refs or data fields running past the end of the buffer — raises
    :class:`SpecError` (never a bare ``struct.error``/``IndexError``).
    The result may still be ill-typed; callers that need the affine
    guarantees use :func:`deserialize` or run :func:`validate`.
    """
    if len(blob) < 12:
        raise SpecError("truncated bytecode: %d-byte blob is shorter than "
                        "the 12-byte header" % len(blob))
    if blob[:4] != MAGIC:
        raise SpecError("bad magic")
    checksum, count = struct.unpack_from("<II", blob, 4)
    if checksum != spec.checksum():
        raise SpecError("bytecode was built for a different spec")
    offset = 12
    ops: OpSequence = []
    try:
        for _ in range(count):
            (node_id,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if node_id == Spec.SNAPSHOT_NODE_ID:
                ops.append(Op("snapshot"))
                continue
            node = spec.node_by_id(node_id)
            refs = []
            for _ref in range(node.arity):
                (ref,) = struct.unpack_from("<H", blob, offset)
                offset += 2
                refs.append(ref)
            args = []
            for dtype in node.data:
                value, offset = dtype.unpack(blob, offset)
                args.append(value)
            ops.append(Op(node.name, tuple(refs), tuple(args)))
    except (struct.error, IndexError, ValueError) as err:
        raise SpecError("truncated or corrupt bytecode at offset %d "
                        "(op %d of %d): %s"
                        % (offset, len(ops), count, err)) from err
    return ops


def deserialize(spec: Spec, blob: bytes) -> OpSequence:
    """Parse flat bytecode back into an op sequence (and validate)."""
    ops = parse(spec, blob)
    validate(spec, ops)
    return ops
