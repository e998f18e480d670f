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


def _force_always_immutable(memory):
    """Turn a live GuestMemory into the pre-optimization reference:
    every write immediately reseals its page to immutable ``bytes``,
    exactly what the old always-immutable implementation did."""
    from repro.vm.memory import GuestMemory

    orig = GuestMemory._write_chunk

    def sealing_chunk(page_idx, page_off, data, length):
        orig(memory, page_idx, page_off, data, length)
        memory.seal_page(page_idx)

    memory._write_chunk = sealing_chunk
    return memory


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
def test_sealing_matches_always_immutable_reference(ops):
    """Snapshot-boundary sealing is invisible: any interleaving of
    writes, create_incremental, restore_incremental and restore_root
    yields byte-identical memory, identical SnapshotStats page counts
    and an identical sim clock vs. the old always-immutable
    implementation."""
    fast = _machine()
    slow = _machine()
    _force_always_immutable(slow.memory)
    fast.capture_root()
    slow.capture_root()

    for op in ops:
        kind = op[0]
        if kind == "write":
            _, addr, data = op
            fast.memory.write(addr, data)
            slow.memory.write(addr, data)
        elif kind == "write_span":
            _, page, data = op
            addr = page * PAGE_SIZE + PAGE_SIZE - 32  # straddles a boundary
            data = data[:fast.memory.size_bytes - addr]  # clamp to memory end
            fast.memory.write(addr, data)
            slow.memory.write(addr, data)
        elif kind == "create":
            assert fast.create_incremental() == slow.create_incremental()
        elif kind == "restore_inc":
            if fast.snapshots.chain_depth:
                assert slow.snapshots.chain_depth
                assert fast.restore_incremental() == slow.restore_incremental()
            else:
                assert not slow.snapshots.chain_depth
        else:
            assert fast.restore_root() == slow.restore_root()

        size = fast.memory.size_bytes
        assert fast.memory.read(0, size) == slow.memory.read(0, size)

    assert fast.snapshots.stats.as_dict() == slow.snapshots.stats.as_dict()
    assert fast.snapshots.private_page_count() == \
        slow.snapshots.private_page_count()
    assert fast.snapshots.diverged_pages() == slow.snapshots.diverged_pages()
    assert fast.clock.now == slow.clock.now


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
# prefix-trace elision == full tracing (PR: pluggable backends)
# ----------------------------------------------------------------------


def _traced_executor():
    from repro.coverage.tracer import EdgeTracer
    from repro.emu.interceptor import Interceptor
    from repro.emu.surface import AttackSurface
    from repro.fuzz.executor import NyxExecutor
    from repro.guestos.kernel import Kernel
    from tests.helpers import EchoServer
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    tracer = EdgeTracer(traced_fragments=("helpers",))
    return machine, NyxExecutor(machine, kernel, interceptor, tracer)


def _elision_sequence(machine, executor, base, child):
    """One full exercise of every elision path; returns the traces.

    Covers from-root elision against a remembered parent recording
    (whole-run elision when the child equals the parent), suffix
    elision against the capture recording, and the heal/rebuild path
    (which invalidates all recordings mid-sequence).
    """
    traces = []
    r_base = executor.run_full(base)
    executor.remember_trace(1, r_base)
    traces.append(r_base.trace)
    executor.finish_snapshot_cycle()
    traces.append(executor.run_full(child, parent_key=1).trace)
    executor.finish_snapshot_cycle()
    executor.run_full(base)                       # re-arm the snapshot
    traces.append(executor.run_suffix(child).trace)
    machine.snapshots.discard_chain()             # corrupt -> heal
    traces.append(executor.run_suffix(child).trace)
    executor.finish_snapshot_cycle()
    return traces


@given(payloads=st.lists(st.binary(min_size=1, max_size=6),
                         min_size=2, max_size=4),
       mutated=st.binary(min_size=0, max_size=8))
@settings(max_examples=15, deadline=None)
def test_prefix_elision_equals_full_tracing(payloads, mutated):
    """Elision is invisible: every run's trace is byte-identical to the
    same sequence executed with elision disabled — through from-root
    elision, whole-run elision, suffix elision and heal/rebuild."""
    from repro.fuzz.input import FuzzInput
    from repro.spec.bytecode import Op

    ops = [Op("connection"), Op("packet", (0,), (bytes(payloads[0]),)),
           Op("snapshot")]
    ops.extend(Op("packet", (0,), (bytes(p),)) for p in payloads[1:])
    base = FuzzInput(ops)
    child = base.copy()
    child.with_payload(base.packet_indices()[-1], bytes(mutated))

    machine, executor = _traced_executor()
    elided = _elision_sequence(machine, executor, base, child)
    assert executor.prefix_elisions >= 1
    assert executor.elision_invalidations >= 1

    executor.trace_elision = False
    plain = _elision_sequence(machine, executor, base, child)
    assert elided == plain

    # FaultPlan composition: an armed injector (even at rate 0, which
    # never fires) disarms elision; traces still match the reference.
    from repro.faults import FaultInjector, FaultPlan
    executor.trace_elision = True
    injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
    executor.interceptor.injector = injector
    machine.snapshots.injector = injector
    before = executor.prefix_elisions
    armed = _elision_sequence(machine, executor, base, child)
    assert executor.prefix_elisions == before
    assert armed == plain
