"""Property-based tests: the snapshot machinery against a model.

A hypothesis state machine performs random interleavings of guest
writes, root restores, incremental creates/restores and re-mirror
cycles, comparing the VM's visible memory against a plain-dict model
after every operation.  This is the strongest correctness evidence for
the paper's trickiest machinery (the CoW mirror + stale-copy revert +
re-mirror interactions of §4.2).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.vm.machine import Machine
from repro.vm.memory import PAGE_SIZE

N_PAGES = 32


def _machine():
    return Machine(memory_bytes=N_PAGES * PAGE_SIZE, disk_sectors=16)


class SnapshotModel(RuleBasedStateMachine):
    """Model: three dicts of page -> first byte."""

    def __init__(self):
        super().__init__()
        self.machine = _machine()
        self.live = {}          # page -> byte value
        self.machine.capture_root()
        self.root = {}
        self.incremental = None

    @rule(page=st.integers(0, N_PAGES - 1), value=st.integers(1, 255))
    def write(self, page, value):
        self.machine.memory.write(page * PAGE_SIZE, bytes([value]))
        self.live[page] = value

    @rule()
    def restore_root(self):
        self.machine.restore_root()
        self.live = dict(self.root)
        self.incremental = None

    @rule()
    def create_incremental(self):
        self.machine.create_incremental()
        self.incremental = dict(self.live)

    @precondition(lambda self: self.incremental is not None)
    @rule()
    def restore_incremental(self):
        self.machine.restore_incremental()
        self.live = dict(self.incremental)

    @invariant()
    def memory_matches_model(self):
        memory = self.machine.memory
        for page in range(N_PAGES):
            expected = self.live.get(page, 0)
            actual = memory.read(page * PAGE_SIZE, 1)[0]
            assert actual == expected, (
                "page %d: VM has %d, model has %d" % (page, actual, expected))


SnapshotModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestSnapshotModel = SnapshotModel.TestCase


@given(st.lists(st.tuples(st.integers(0, N_PAGES - 1),
                          st.integers(1, 255)), min_size=1, max_size=60),
       st.integers(0, 59))
@settings(max_examples=40, deadline=None)
def test_incremental_splits_history_exactly(writes, split_raw):
    """Writes before the incremental snapshot survive its restore;
    writes after it are rolled back."""
    split = split_raw % len(writes)
    machine = _machine()
    machine.capture_root()
    model = {}
    for page, value in writes[:split]:
        machine.memory.write(page * PAGE_SIZE, bytes([value]))
        model[page] = value
    machine.create_incremental()
    for page, value in writes[split:]:
        machine.memory.write(page * PAGE_SIZE, bytes([value]))
    machine.restore_incremental()
    for page in range(N_PAGES):
        assert machine.memory.read(page * PAGE_SIZE, 1)[0] == \
            model.get(page, 0)
    machine.restore_root()
    for page in range(N_PAGES):
        assert machine.memory.read(page * PAGE_SIZE, 1)[0] == 0


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"),
                  st.integers(0, N_PAGES * PAGE_SIZE - 8),
                  st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("write_span"),
                  st.integers(0, N_PAGES - 2),
                  st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE + 64)),
        st.tuples(st.just("create")),
        st.tuples(st.just("restore_inc")),
        st.tuples(st.just("restore_root")),
    ),
    min_size=1, max_size=40)


@given(_OPS)
@settings(max_examples=40, deadline=None)
def test_memory_matches_flat_model(ops):
    """Any interleaving of sub-page and page-straddling writes,
    create_incremental, restore_incremental and restore_root leaves
    live memory, the root image and layer 1's mirror byte-identical to
    a flat model: one ``bytearray`` for live memory and a ``bytes``
    copy for each snapshot.  Every page stays an immutable ``bytes``
    object, so no write can reach a snapshot through a shared page."""
    machine = _machine()
    memory = machine.memory
    size = memory.size_bytes
    machine.capture_root()
    live = bytearray(size)
    root = bytes(live)
    layer1 = None

    for op in ops:
        kind = op[0]
        if kind == "write":
            _, addr, data = op
            memory.write(addr, data)
            live[addr:addr + len(data)] = data
        elif kind == "write_span":
            _, page, data = op
            addr = page * PAGE_SIZE + PAGE_SIZE - 32  # straddles a boundary
            data = data[:size - addr]  # clamp to memory end
            memory.write(addr, data)
            live[addr:addr + len(data)] = data
        elif kind == "create":
            machine.create_incremental()
            layer1 = bytes(live)
        elif kind == "restore_inc":
            if layer1 is not None:
                machine.restore_incremental()
                live[:] = layer1
        else:
            machine.restore_root()
            live[:] = root
            layer1 = None

        assert memory.read(0, size) == live
        assert all(type(page) is bytes for page in memory.pages_snapshot())
        assert b"".join(machine.snapshots.root.pages) == root
        if layer1 is not None:
            assert b"".join(machine.snapshots._layers[0].mirror) == layer1


@given(st.integers(1, 6), st.integers(8, N_PAGES))
@settings(max_examples=20, deadline=None)
def test_snapshot_costs_scale_with_dirty_pages(n_small, n_large):
    """The §4.2 cost property: incremental creation cost is a function
    of the diverged page count, not total memory."""
    costs = []
    for n in (n_small, n_large):
        machine = _machine()
        machine.capture_root()
        for page in range(n):
            machine.memory.write(page * PAGE_SIZE, b"x")
        before = machine.clock.now
        machine.create_incremental()
        costs.append(machine.clock.now - before)
    assert costs[1] > costs[0]


# ----------------------------------------------------------------------
# a corrupted chain rebuilds to the healthy outcome
# ----------------------------------------------------------------------


def _traced_executor():
    from repro.coverage.instrument import load
    from repro.coverage.tracer import TracerCore
    from repro.emu.interceptor import Interceptor
    from repro.emu.surface import AttackSurface
    from repro.fuzz.executor import NyxExecutor
    from repro.guestos.kernel import Kernel
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(load("tests.helpers").EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    return machine, NyxExecutor(machine, kernel, interceptor, TracerCore())


def _rebuild_outcomes(machine, executor, base, child, corrupt):
    """Suffix-run outcomes (trace, echo responses) around a real
    corruption of chain layer 1: the healthy run, the run whose closing
    reset detects the corruption, and the run that rebuilds the chain
    from the root before it executes."""
    def suffix():
        result = executor.run_suffix(child)
        return result.trace, executor.interceptor.responses(0)

    executor.run_full(base)                 # the marker captures layer 1
    healthy = suffix()
    corrupt()
    rebuilds = executor.snapshot_rebuilds
    detecting = suffix()
    assert machine.snapshot_corruptions >= 1
    assert executor.snapshot_rebuilds == rebuilds
    rebuilt = suffix()
    assert executor.snapshot_rebuilds == rebuilds + 1
    executor.finish_snapshot_cycle()
    return healthy, detecting, rebuilt


@given(payloads=st.lists(st.binary(min_size=1, max_size=6),
                         min_size=2, max_size=4),
       mutated=st.binary(min_size=0, max_size=8),
       victim=st.integers(0, 1 << 16), bit=st.integers(0, 7))
@settings(max_examples=15, deadline=None)
def test_corrupted_chain_rebuilds_to_the_healthy_outcome(payloads, mutated,
                                                         victim, bit):
    """A bit flip in layer 1's mirror is caught by the closing reset,
    and the next suffix run rebuilds the chain from the root and
    returns the trace and responses of the healthy chain — with no
    injector, and with an armed rate-0 injector forcing the flip."""
    from repro.faults import FaultInjector, FaultKind, FaultPlan
    from repro.fuzz.input import FuzzInput
    from repro.spec.bytecode import Op

    ops = [Op("connection"), Op("packet", (0,), (bytes(payloads[0]),)),
           Op("snapshot")]
    ops.extend(Op("packet", (0,), (bytes(p),)) for p in payloads[1:])
    base = FuzzInput(ops)
    child = base.copy()
    child.with_payload(base.packet_indices()[-1], bytes(mutated))

    machine, executor = _traced_executor()
    snapshots = machine.snapshots

    def flip():
        pages = sorted(snapshots.mirror_private_pages())
        assert pages
        snapshots.flip_mirror_bit(pages[victim % len(pages)], bit=bit)

    healthy, detecting, rebuilt = _rebuild_outcomes(
        machine, executor, base, child, flip)
    assert healthy[0]  # the echo server is traced
    assert detecting == healthy
    assert rebuilt == healthy

    machine, executor = _traced_executor()
    injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
    executor.interceptor.injector = injector
    machine.snapshots.injector = injector
    armed = _rebuild_outcomes(
        machine, executor, base, child,
        lambda: injector.force_next(FaultKind.SNAPSHOT_BITFLIP))
    assert injector.faults_injected == 1
    assert armed == (healthy, healthy, healthy)
