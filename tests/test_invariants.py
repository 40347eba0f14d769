"""Tests that the invariant checkers actually detect corruption."""

import itertools
import random
import time

import pytest

from conftest import cycle_graph, path_graph, random_graph
from repro.core import (
    assert_canonical,
    build_hcl,
    canonical_index,
    check_cover_property,
    check_highway_exact,
    check_minimality,
    sample_vertex_pairs,
)
from repro.errors import CoverPropertyError
from repro.graphs import Graph


class TestDetection:
    def test_clean_index_passes_all(self):
        index = build_hcl(cycle_graph(8), [0, 4])
        check_highway_exact(index)
        check_cover_property(index)
        check_minimality(index)
        assert_canonical(index)

    def test_wrong_highway_detected(self):
        index = build_hcl(cycle_graph(8), [0, 4])
        index.highway.set_distance(0, 4, 1.0)
        with pytest.raises(CoverPropertyError):
            check_highway_exact(index)
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)

    def test_missing_entry_detected(self):
        index = build_hcl(path_graph(5), [2])
        index.labeling.remove_entry(0, 2)
        with pytest.raises(CoverPropertyError):
            check_cover_property(index, pairs=[(0, 4)])
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)

    def test_superfluous_entry_detected(self):
        index = build_hcl(path_graph(5), [1, 2])
        # (2, 2.0) at vertex 0 is superfluous (the path crosses landmark 1).
        index.labeling.add_entry(0, 2, 2.0)
        with pytest.raises(CoverPropertyError):
            check_minimality(index)

    def test_wrong_distance_entry_detected(self):
        index = build_hcl(path_graph(5), [2])
        index.labeling.add_entry(0, 2, 9.0)
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)


class TestCanonicalIndex:
    def test_same_as_build(self):
        g = cycle_graph(6)
        assert canonical_index(g, [3, 0]).structurally_equal(build_hcl(g, [0, 3]))

    def test_empty_landmarks(self):
        index = canonical_index(path_graph(3), [])
        assert index.landmarks == set()
        check_cover_property(index)  # vacuously true


class TestSampleVertexPairs:
    def test_draw_equals_sampling_the_listed_pairs(self):
        index = build_hcl(random_graph(7, n_lo=25, n_hi=30), [0, 3])
        non = [v for v in index.graph.vertices() if not index.is_landmark(v)]
        listed = list(itertools.combinations(non, 2))
        for seed in range(5):
            for k in (1, 7, len(listed) - 1):
                assert sample_vertex_pairs(index, k, seed=seed) == (
                    random.Random(seed).sample(listed, k)
                )
        ours, theirs = random.Random(9), random.Random(9)
        for _ in range(3):  # an auditor-style shared stream
            assert sample_vertex_pairs(index, 6, rng=ours) == theirs.sample(
                listed, 6
            )
        assert sample_vertex_pairs(index, len(listed)) == listed

    def test_prompt_and_seeded_on_20k_vertices(self):
        index = build_hcl(Graph(20000), [])  # ~2e8 candidate pairs
        start = time.perf_counter()
        pairs = sample_vertex_pairs(index, sample=200, seed=3)
        assert time.perf_counter() - start < 2.0
        assert len(set(pairs)) == 200
        assert all(0 <= s < t < 20000 for s, t in pairs)
        assert pairs == sample_vertex_pairs(index, sample=200, seed=3)
        assert pairs != sample_vertex_pairs(index, sample=200, seed=4)
