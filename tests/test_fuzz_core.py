"""Unit tests for the fuzzer core: inputs, mutators, queue, policies."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.input import FuzzInput, packets_input
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.policies import (AggressivePolicy, BalancedPolicy, NonePolicy,
                                 AGGRESSIVE_PATIENCE, make_policy)
from repro.fuzz.queue import Corpus, QueueEntry
from repro.sim.rng import DeterministicRandom
from repro.spec.bytecode import Op
from repro.spec.nodes import default_network_spec


def simple_input(n_packets=5):
    return packets_input([b"packet-%02d" % i for i in range(n_packets)])


class TestFuzzInput:
    def test_packet_indices_skip_connection(self):
        inp = simple_input(3)
        assert inp.packet_indices() == [1, 2, 3]
        assert inp.num_packets == 3

    def test_payload_roundtrip(self):
        inp = simple_input(2)
        inp.with_payload(1, b"replaced")
        assert inp.payload_of(1) == b"replaced"

    def test_copy_is_deep_for_ops(self):
        inp = simple_input(2)
        clone = inp.copy()
        clone.with_payload(1, b"changed")
        assert inp.payload_of(1) == b"packet-00"

    def test_copy_shares_immutable_ops(self):
        inp = simple_input(2)
        clone = inp.copy()
        assert all(a is b for a, b in zip(clone.ops, inp.ops))
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.ops[1].args = (b"changed",)
        clone.with_payload(1, b"changed")
        assert clone.ops[1] is not inp.ops[1]
        assert clone.ops[2] is inp.ops[2]

    def test_total_payload_bytes(self):
        assert simple_input(3).total_payload_bytes() == 27

    def test_validates_against_default_spec(self):
        simple_input(2).validate_against(default_network_spec())


class TestMutationEngine:
    def setup_method(self):
        self.rng = DeterministicRandom(42)
        self.engine = MutationEngine(self.rng, dictionary=[b"TOKEN"])

    def test_mutate_changes_something(self):
        parent = simple_input(4)
        changed = 0
        for _ in range(20):
            child = self.engine.mutate(parent)
            if [o.args for o in child.ops] != [o.args for o in parent.ops] \
                    or len(child.ops) != len(parent.ops):
                changed += 1
        assert changed >= 15

    def test_from_index_protects_prefix(self):
        parent = simple_input(6)
        for _ in range(50):
            child = self.engine.mutate(parent, from_index=4)
            # Ops before index 4 must be byte-identical.
            for i in range(4):
                assert child.ops[i].args == parent.ops[i].args

    def test_parent_never_mutated(self):
        parent = simple_input(4)
        snapshot = [o.args for o in parent.ops]
        for _ in range(50):
            self.engine.mutate(parent)
        assert [o.args for o in parent.ops] == snapshot

    def test_splice_uses_donor(self):
        parent = simple_input(4)
        donor = packets_input([b"DONOR-A", b"DONOR-B"])
        spliced = 0
        donor_material_seen = False
        for _ in range(200):
            child = self.engine.mutate(parent, splice_donor=donor)
            if child.origin == "splice":
                spliced += 1
                payloads = [child.payload_of(i) for i in child.packet_indices()]
                if any(b"DONOR" in p for p in payloads):
                    donor_material_seen = True
        assert spliced > 0
        # Havoc may scramble individual spliced packets, but across
        # many tries donor bytes must show up somewhere.
        assert donor_material_seen

    def test_deterministic_given_seed(self):
        parent = simple_input(4)
        a = MutationEngine(DeterministicRandom(7)).mutate(parent)
        b = MutationEngine(DeterministicRandom(7)).mutate(parent)
        assert [o.args for o in a.ops] == [o.args for o in b.ops]

    def test_deterministic_children_bounded(self):
        parent = simple_input(3)
        children = self.engine.deterministic_children(parent, budget=10)
        assert 0 < len(children) <= 10
        assert all(c.origin == "det" for c in children)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mutation_never_crashes(self, seed):
        engine = MutationEngine(DeterministicRandom(seed))
        parent = packets_input([b"", b"x", b"yy" * 100])
        child = engine.mutate(parent)
        assert isinstance(child, FuzzInput)


class TestCorpus:
    def test_add_and_cycle(self):
        corpus = Corpus(DeterministicRandom(0))
        for i in range(5):
            corpus.add(simple_input(i + 1))
        seen = {corpus.next_entry().entry_id for _ in range(50)}
        assert len(seen) >= 3

    def test_empty_raises(self):
        with pytest.raises(IndexError):
            Corpus(DeterministicRandom(0)).next_entry()

    def test_splice_donor_excludes_self(self):
        corpus = Corpus(DeterministicRandom(0))
        only = corpus.add(simple_input())
        assert corpus.splice_donor(only) is None
        corpus.add(simple_input())
        assert corpus.splice_donor(only) is not None

    def test_favored_refresh(self):
        corpus = Corpus(DeterministicRandom(0))
        fast = corpus.add(simple_input(), exec_time=0.001, new_edges=10)
        slow = corpus.add(simple_input(), exec_time=1.0, new_edges=1)
        assert fast.favored

    def test_fuzzable_packets_respects_consumed(self):
        corpus = Corpus(DeterministicRandom(0))
        entry = corpus.add(simple_input(10), packets_consumed=4)
        assert entry.fuzzable_packets() == 4
        entry2 = corpus.add(simple_input(3), packets_consumed=0)
        assert entry2.fuzzable_packets() == 3


class TestPolicies:
    def entry(self, n_packets, consumed=0):
        return QueueEntry(0, simple_input(n_packets),
                          effective_packets=consumed)

    def test_none_policy(self):
        policy = NonePolicy()
        assert policy.choose(self.entry(20), DeterministicRandom(0)) is None

    def test_balanced_small_inputs_use_root(self):
        policy = BalancedPolicy()
        rng = DeterministicRandom(0)
        for _ in range(50):
            assert policy.choose(self.entry(4), rng) is None

    def test_balanced_distribution(self):
        policy = BalancedPolicy()
        rng = DeterministicRandom(1)
        entry = self.entry(20)
        picks = [policy.choose(entry, rng) for _ in range(500)]
        roots = sum(1 for p in picks if p is None)
        assert 0 < roots < 50  # ~4%
        indices = [p for p in picks if p is not None]
        assert all(0 <= p < 20 for p in indices)
        second_half = sum(1 for p in indices if p >= 10)
        assert second_half > len(indices) * 0.5  # biased towards the end

    def test_aggressive_starts_at_end_and_walks_back(self):
        policy = AggressivePolicy()
        rng = DeterministicRandom(0)
        entry = self.entry(10)
        first = policy.choose(entry, rng)
        assert first == 8  # after the second-to-last packet
        policy.feedback(entry, False, AGGRESSIVE_PATIENCE)
        assert policy.choose(entry, rng) == 7

    def test_aggressive_wraps_to_end(self):
        policy = AggressivePolicy()
        rng = DeterministicRandom(0)
        entry = self.entry(6)
        for _ in range(20):
            policy.choose(entry, rng)
            policy.feedback(entry, False, AGGRESSIVE_PATIENCE)
        # After wrapping, the cursor must be back in range.
        assert policy.choose(entry, rng) in range(0, 5)

    def test_aggressive_success_resets_patience(self):
        policy = AggressivePolicy()
        rng = DeterministicRandom(0)
        entry = self.entry(10)
        start = policy.choose(entry, rng)
        policy.feedback(entry, True, AGGRESSIVE_PATIENCE)
        assert policy.choose(entry, rng) == start

    def test_aggressive_respects_consumed_packets(self):
        policy = AggressivePolicy()
        rng = DeterministicRandom(0)
        entry = self.entry(20, consumed=8)
        assert policy.choose(entry, rng) == 6

    def test_factory(self):
        assert make_policy("NONE").name == "none"
        assert make_policy("balanced").name == "balanced"
        assert make_policy("aggressive").name == "aggressive"
        with pytest.raises(ValueError):
            make_policy("bogus")
