"""Unit tests for the coverage bitmap and edge tracer."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coverage.bitmap import (BUCKET_LOOKUP, CoverageMap, MAP_SIZE,
                                   classify_counts, count_bits)
from repro.coverage.instrument import SINK, load
from repro.coverage.tracer import SITE_BYTES, TracerCore

from tests import helpers

#: tests.helpers compiled with block sites.
traced = load("tests.helpers")


class TestBuckets:
    def test_afl_bucket_boundaries(self):
        expected = {0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
                    16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128}
        for count, bucket in expected.items():
            assert BUCKET_LOOKUP[count] == bucket, count

    def test_classify_counts_sparse(self):
        assert classify_counts({5: 1, 9: 300}) == {5: 1, 9: 128}


class TestCoverageMap:
    def test_new_edge_then_nothing(self):
        cov = CoverageMap()
        assert cov.has_new_bits({10: 1}) == CoverageMap.NEW_EDGE
        assert cov.has_new_bits({10: 1}) == CoverageMap.NEW_NOTHING

    def test_new_count_bucket(self):
        cov = CoverageMap()
        cov.has_new_bits({10: 1})
        assert cov.has_new_bits({10: 5}) == CoverageMap.NEW_COUNT
        assert cov.has_new_bits({10: 5}) == CoverageMap.NEW_NOTHING

    def test_edge_count_tracks_distinct_edges(self):
        cov = CoverageMap()
        cov.has_new_bits({1: 1, 2: 1})
        cov.has_new_bits({2: 3, 3: 1})
        assert cov.edge_count() == 3

    def test_update_false_leaves_virgin_untouched(self):
        cov = CoverageMap()
        assert cov.has_new_bits({7: 1}, update=False) == CoverageMap.NEW_EDGE
        assert cov.edges_seen == 0
        assert cov.has_new_bits({7: 1}) == CoverageMap.NEW_EDGE

    def test_aliasing_indices_count_edge_once(self):
        # Regression: two trace indices landing on the same map slot
        # (idx and idx + MAP_SIZE) are one edge, and edges_seen must
        # reflect post-mask slots, not pre-mask indices.
        cov = CoverageMap()
        assert cov.has_new_bits({5: 1, MAP_SIZE + 5: 1}) == CoverageMap.NEW_EDGE
        assert cov.edges_seen == 1
        assert cov.edge_count() == 1
        # The slot is now known under either alias.
        assert cov.has_new_bits({5: 1}) == CoverageMap.NEW_NOTHING
        assert cov.has_new_bits({MAP_SIZE + 5: 1}) == CoverageMap.NEW_NOTHING
        assert cov.edges_seen == 1

    def test_aliasing_with_distinct_buckets_is_new_count_not_new_edge(self):
        cov = CoverageMap()
        cov.has_new_bits({9: 1})
        # Alias of slot 9 with a different hit-count bucket: known edge,
        # new bucket — must not inflate the distinct-edge counter.
        assert cov.has_new_bits({MAP_SIZE + 9: 5}) == CoverageMap.NEW_COUNT
        assert cov.edges_seen == 1

    def test_indices_wrap_modulo_map_size(self):
        cov = CoverageMap()
        cov.has_new_bits({MAP_SIZE + 5: 1})
        assert cov.has_new_bits({5: 1}) == CoverageMap.NEW_NOTHING

    def test_checksum_bucket_invariant(self):
        cov = CoverageMap()
        # 4..7 share a bucket, so checksums match.
        assert cov.checksum({3: 4}) == cov.checksum({3: 7})
        assert cov.checksum({3: 1}) != cov.checksum({3: 4})

    def test_copy_is_independent(self):
        cov = CoverageMap()
        cov.has_new_bits({1: 1})
        clone = cov.copy()
        clone.has_new_bits({2: 1})
        assert cov.edge_count() == 1
        assert clone.edge_count() == 2

    @given(st.dictionaries(st.integers(0, MAP_SIZE - 1),
                           st.integers(1, 255), max_size=50))
    @settings(max_examples=50)
    def test_absorbing_twice_is_idempotent(self, trace):
        cov = CoverageMap()
        cov.has_new_bits(trace)
        assert cov.has_new_bits(trace) == CoverageMap.NEW_NOTHING


def count_nonzero(trace):
    return count_bits(trace.values())


class TestEdgeTracer:
    def test_traces_only_matching_files(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.run(traced.straight)
        assert tracer.take_trace()  # the instrumented copy

        tracer.begin()
        tracer.run(helpers.straight)  # the plain module has no sites
        assert not tracer.take_trace()

    def test_different_branches_differ(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.run(traced.branchy, True)
        trace_true = dict(tracer.take_trace())
        tracer.begin()
        tracer.run(traced.branchy, False)
        trace_false = dict(tracer.take_trace())
        assert trace_true != trace_false

    def test_loop_raises_hit_counts(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.run(traced.loop, 10)
        assert max(tracer.take_trace().values()) >= 9

    def test_begin_resets(self):
        tracer = TracerCore()
        tracer.run(traced.loop, 3)
        tracer.begin()
        assert tracer.take_trace() == {}

    def test_sink_discards_outside_windows(self):
        tracer = TracerCore()
        tracer.begin()
        traced.loop(5)  # no window open: nothing is recorded anywhere
        assert tracer.stream_pos() == 0
        tracer.run(traced.loop, 5)
        inside = tracer.stream_pos()
        traced.loop(5)
        assert tracer.stream_pos() == inside > 0

    def test_suspended_window_records_nothing(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.elide_suspend()
        tracer.run(traced.loop, 5)
        assert tracer.stream_pos() == 0

    def test_ijon_set_lands_in_trace(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.ijon_set(3)
        tracer.ijon_set(3)
        trace = tracer.take_trace()
        assert len(trace) == 1
        assert list(trace.values()) == [2]

    def test_ijon_slots_distinct(self):
        tracer = TracerCore()
        tracer.begin()
        tracer.ijon_set(1)
        tracer.ijon_set(2)
        assert len(tracer.take_trace()) == 2


# ----------------------------------------------------------------------
# the fold against its reference loop
# ----------------------------------------------------------------------

def reference_fold(sites):
    """AFL's edge fold as a plain loop: the definition the tracer's
    lane fold must reproduce, key order included."""
    trace = {}
    prev = 0
    for site in sites:
        edge = (site ^ (prev >> 1)) % MAP_SIZE
        prev = site
        trace[edge] = trace.get(edge, 0) + 1
    return trace


def _emit(sites):
    for site in sites:
        SINK.hit(site)


#: Any 32-bit site, with bits 16 and 31 set often: bit 16 is the last
#: bit of the previous site an edge keeps, bit 31 a lane's top bit.
SITES = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 1 << 16, 1 << 31, (1 << 31) | (1 << 16) | 1,
                     2**32 - 1]))

#: Streams of up to 64 sites, or longer than 4,096 (a drawn pattern,
#: repeated, then a drawn tail).
STREAMS = st.one_of(
    st.lists(SITES, max_size=64),
    st.builds(lambda pattern, tail: pattern * (4096 // len(pattern) + 1)
              + tail,
              st.lists(SITES, min_size=1, max_size=8),
              st.lists(SITES, max_size=8)))


class TestFold:
    @given(STREAMS)
    @example([])
    @example([(1 << 31) | (1 << 16) | 1])
    @example([1 << 16, 1 << 31, (1 << 17) | 1, 2**32 - 1])
    @settings(max_examples=150)
    def test_fold_equals_the_reference_loop(self, sites):
        tracer = TracerCore()
        tracer.begin()
        tracer.run(_emit, sites)
        trace = tracer.take_trace()
        assert list(trace.items()) == list(reference_fold(sites).items())
        # Recordings are little-endian 32-bit lanes on every host.
        assert tracer.last_packed == b"".join(
            site.to_bytes(SITE_BYTES, "little") for site in sites)

    @given(STREAMS, st.data())
    @settings(max_examples=60)
    def test_recorded_prefix_joined_to_a_live_suffix(self, sites, data):
        # Prefix elision: the recorded prefix is seeded and only the
        # suffix is traced live; the fold runs through the join.
        cut = data.draw(st.integers(0, len(sites)))
        recorder = TracerCore()
        recorder.begin()
        recorder.run(_emit, sites)
        whole = recorder.take_trace()
        tracer = TracerCore()  # a fresh memo: the join is really folded
        tracer.begin()
        tracer.elide_suspend()
        tracer.run(_emit, sites[:cut])
        tracer.elide_resume(recorder.last_packed[:cut * SITE_BYTES])
        tracer.run(_emit, sites[cut:])
        assert list(tracer.take_trace().items()) == list(whole.items())
        assert tracer.prefix_site_count == cut
