"""Mutation engine: packet-level and byte-level (havoc) mutations.

Nyx auto-generates "custom mutators" from the spec (§2.2); for the
network specs this amounts to two layers:

* **packet-level**: duplicate / drop / swap / truncate the packet
  sequence, or splice packets from another corpus entry;
* **byte-level havoc** on individual packet payloads: bit flips,
  interesting values, arithmetic, block ops and dictionary tokens
  (protocol keywords), AFL-style.

When fuzzing from an incremental snapshot only ops *after* the
snapshot index may change ("the fuzzer continues fuzzing starting from
the next packet only", §4.3) — every entry point takes ``from_index``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from repro.fuzz.input import FuzzInput
from repro.sim.rng import DeterministicRandom
from repro.spec.bytecode import Op

INTERESTING_8 = [0, 1, 16, 32, 64, 100, 127, 128, 255]
INTERESTING_16 = [0, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 65535]
INTERESTING_32 = [0, 1, 32768, 65535, 65536, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]
#: Replacements for ASCII decimal runs (text protocols: lengths,
#: sizes, ranges, ports).
INTERESTING_DECIMALS = [b"0", b"1", b"-1", b"255", b"65535", b"99999",
                        b"4294967295", b"-99999"]

#: Maximum payload size havoc will grow a packet to.
MAX_PAYLOAD = 4096


_DIGIT_RUN_RE = re.compile(rb"[0-9]+")


def _digit_runs(data: bytearray):
    """(start, end) spans of ASCII decimal runs in ``data``.

    One C-level regex scan instead of a Python byte loop; spans are
    identical and no randomness is involved, so mutation streams are
    unchanged.
    """
    return [match.span() for match in _DIGIT_RUN_RE.finditer(data)]


class MutationEngine:
    """Stateless mutation operators driven by a deterministic RNG."""

    def __init__(self, rng: DeterministicRandom,
                 dictionary: Sequence[bytes] = ()) -> None:
        self.rng = rng
        self.dictionary = list(dictionary)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def mutate(self, parent: FuzzInput, from_index: int = 0,  # nyx: hot
               splice_donor: Optional[FuzzInput] = None) -> FuzzInput:
        """Produce a mutated child touching only ops >= from_index."""
        child = parent.copy()
        child.origin = "havoc"
        mutable = [i for i in child.packet_indices() if i >= from_index]
        if not mutable:
            return child
        rng = self.rng
        # Occasionally restructure the packet sequence.
        if rng.chance(0.2):
            self._structural(child, mutable, splice_donor, from_index)
            mutable = [i for i in child.packet_indices() if i >= from_index]
            if not mutable:
                self._cleanup_markers(child, from_index)
                return child
        # Havoc one or more payloads.
        for _ in range(1 + rng.randrange(3)):
            idx = rng.pick(mutable)
            payload = bytearray(child.payload_of(idx))
            payload = self._havoc_payload(payload)
            child.with_payload(idx, bytes(payload))
        self._cleanup_markers(child, from_index)
        return child

    @staticmethod
    def _cleanup_markers(child: FuzzInput, from_index: int) -> None:
        """Repair snapshot-marker damage done by structural mutation.

        Dropping/truncating packets can strand a marker as the last op
        or leave two markers adjacent — both rejected by ``validate``
        (the analyzer's NYX012).  Only the mutated suffix is touched:
        ops before ``from_index`` anchor an incremental snapshot and
        must stay put.
        """
        ops = child.ops
        if not any(op.is_snapshot_marker() for op in ops[from_index:]):
            return
        while len(ops) > from_index and ops[-1].is_snapshot_marker():
            del ops[-1]
        index = len(ops) - 1
        while index >= max(from_index, 1):
            if (ops[index].is_snapshot_marker()
                    and ops[index - 1].is_snapshot_marker()):
                del ops[index]
            index -= 1

    # ------------------------------------------------------------------
    # structural (packet-level) mutations
    # ------------------------------------------------------------------

    def _structural(self, child: FuzzInput, mutable: List[int],
                    donor: Optional[FuzzInput], from_index: int) -> None:
        rng = self.rng
        if self.dictionary and rng.chance(0.35):
            # Spec-generative insertion: emit a brand-new packet opcode
            # carrying a dictionary token (a whole protocol message).
            # This is the structural edge Nyx's spec model has over
            # byte-level fuzzers: it can *generate* opcodes, not just
            # mutate recorded ones — weighted up because whole-message
            # generation is the spec's main contribution to search.
            idx = rng.pick(mutable)
            op = child.ops[idx]
            ref = op.refs[0] if op.refs else 0
            token = rng.pick(self.dictionary)
            child.ops.insert(idx + (0 if rng.chance(0.5) else 1),
                             Op(op.node, (ref,), (bytes(token),)))
            child.origin = "gen-packet"
            return
        choice = rng.randrange(6)
        if choice == 5:
            # Merge two adjacent packets into one send(): exercises the
            # target's handling of multiple messages per read, which
            # stream transports produce naturally.
            merge_candidates = [i for i in mutable
                                if i + 1 in child.packet_indices()]
            if merge_candidates:
                idx = rng.pick(merge_candidates)
                merged = child.payload_of(idx) + child.payload_of(idx + 1)
                child.with_payload(idx, merged)
                del child.ops[idx + 1]
                child.origin = "merge-packet"
            return
        if choice == 0 and len(mutable) >= 1:
            # Duplicate a packet right after itself.
            idx = rng.pick(mutable)
            child.ops.insert(idx + 1, child.ops[idx])
            child.origin = "dup-packet"
        elif choice == 1 and len(mutable) >= 2:
            # Drop one packet.
            idx = rng.pick(mutable)
            del child.ops[idx]
            child.origin = "drop-packet"
        elif choice == 2 and len(mutable) >= 2:
            # Swap two packets' payloads (keeps refs valid).
            a, b = rng.pick(mutable), rng.pick(mutable)
            pa, pb = child.payload_of(a), child.payload_of(b)
            child.with_payload(a, pb)
            child.with_payload(b, pa)
            child.origin = "swap-packet"
        elif choice == 3 and donor is not None:
            # Splice: replace the tail with packets from another entry.
            donor_packets = [donor.payload_of(i) for i in donor.packet_indices()]
            if donor_packets:
                idx = rng.pick(mutable)
                del child.ops[idx + 1:]
                ref = child.ops[idx].refs[0] if child.ops[idx].refs else 0
                take = 1 + rng.randrange(len(donor_packets))
                for payload in donor_packets[:take]:
                    child.ops.append(Op("packet", (ref,), (payload,)))
                child.origin = "splice"
        else:
            # Truncate the tail.
            idx = rng.pick(mutable)
            if idx + 1 < len(child.ops):
                del child.ops[idx + 1:]
                child.origin = "truncate"

    # ------------------------------------------------------------------
    # byte-level havoc
    # ------------------------------------------------------------------

    def _havoc_payload(self, payload: bytearray) -> bytearray:
        rng = self.rng
        stacking = 1 << rng.randrange(4)  # 1..8 stacked tweaks
        for _ in range(stacking):
            payload = self._one_tweak(payload)
            if len(payload) > MAX_PAYLOAD:
                payload = payload[:MAX_PAYLOAD]
        return payload

    def _one_tweak(self, data: bytearray) -> bytearray:
        rng = self.rng
        ops = 11 if self.dictionary else 10
        choice = rng.randrange(ops)
        if not data and choice not in (7, 10):
            choice = 7  # only insertion makes sense on empty payloads
        if choice == 9:
            # Rewrite an ASCII decimal run with an interesting value
            # (text-protocol lengths, ranges, ports — AFL-smart style).
            runs = _digit_runs(data)
            if runs:
                start, end = rng.pick(runs)
                data[start:end] = rng.pick(INTERESTING_DECIMALS)
            return data
        if choice == 0:    # bit flip
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
        elif choice == 1:  # random byte
            pos = rng.randrange(len(data))
            data[pos] = rng.randrange(256)
        elif choice == 2:  # interesting 8-bit
            pos = rng.randrange(len(data))
            data[pos] = rng.pick(INTERESTING_8)
        elif choice == 3:  # interesting 16-bit (LE or BE)
            if len(data) >= 2:
                pos = rng.randrange(len(data) - 1)
                value = rng.pick(INTERESTING_16)
                byteorder = "little" if rng.chance(0.5) else "big"
                data[pos:pos + 2] = value.to_bytes(2, byteorder)
        elif choice == 4:  # arithmetic +-
            pos = rng.randrange(len(data))
            data[pos] = (data[pos] + rng.randrange(-35, 36)) & 0xFF
        elif choice == 5:  # block delete
            if len(data) >= 2:
                start = rng.randrange(len(data) - 1)
                length = 1 + rng.randrange(min(16, len(data) - start))
                del data[start:start + length]
        elif choice == 6:  # block duplicate (occasionally the whole payload)
            if rng.chance(0.15):
                data.extend(bytes(data))  # doubling reaches overflow sizes fast
            else:
                start = rng.randrange(len(data))
                length = 1 + rng.randrange(min(64, len(data) - start))
                data[start:start] = data[start:start + length]
        elif choice == 7:  # random insert
            pos = rng.randrange(len(data) + 1)
            blob = rng.some_bytes(1 + rng.randrange(8))
            data[pos:pos] = blob
        elif choice == 8:  # byte run overwrite
            pos = rng.randrange(len(data))
            length = 1 + rng.randrange(min(8, len(data) - pos))
            data[pos:pos + length] = bytes([rng.randrange(256)]) * length
        elif choice == 10:  # dictionary token insert/overwrite
            token = rng.pick(self.dictionary)
            pos = rng.randrange(len(data) + 1)
            if rng.chance(0.5) and len(data) >= len(token):
                pos = rng.randrange(len(data) - len(token) + 1)
                data[pos:pos + len(token)] = token
            else:
                data[pos:pos] = token
        return data

    # ------------------------------------------------------------------
    # deterministic first pass (light version of AFL's det stage)
    # ------------------------------------------------------------------

    def deterministic_children(self, parent: FuzzInput,
                               from_index: int = 0,
                               budget: int = 32) -> List[FuzzInput]:
        """A bounded set of deterministic single-tweak children."""
        children: List[FuzzInput] = []
        mutable = [i for i in parent.packet_indices() if i >= from_index]
        for idx in mutable:
            payload = parent.payload_of(idx)
            positions = range(min(len(payload), budget // max(len(mutable), 1) + 1))
            for pos in positions:
                for value in (0x00, 0xFF):
                    if pos < len(payload) and payload[pos] != value:
                        child = parent.copy()
                        mutated = bytearray(payload)
                        mutated[pos] = value
                        child.with_payload(idx, bytes(mutated))
                        child.origin = "det"
                        children.append(child)
                        if len(children) >= budget:
                            return children
        return children
