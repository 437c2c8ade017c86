"""Tests for seeded RNG substreams."""

import numpy as np
import pytest

from repro.db.schema import MIX_WEIGHTS
from repro.sim.rng import WeightedChoice, make_rng
from repro.workloads.silo.tpcc import MIX as SILO_MIX


def test_same_seed_same_stream_reproduces():
    a = make_rng(42, "pebs").random(10)
    b = make_rng(42, "pebs").random(10)
    assert np.array_equal(a, b)


def test_different_streams_decorrelate():
    a = make_rng(42, "pebs").random(10)
    b = make_rng(42, "policy").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1, "x").random(10)
    b = make_rng(2, "x").random(10)
    assert not np.array_equal(a, b)


def test_integer_stream_names_work():
    a = make_rng(42, 3).random(4)
    b = make_rng(42, 3).random(4)
    assert np.array_equal(a, b)


def test_string_hash_is_stable():
    # FNV-1a of "pebs" must not depend on PYTHONHASHSEED.
    a = make_rng(0, "pebs").integers(0, 1 << 30)
    b = make_rng(0, "pebs").integers(0, 1 << 30)
    assert a == b


def test_unsupported_stream_type_rejected():
    with pytest.raises(TypeError):
        make_rng(42, 3.14)


class TestWeightedChoice:
    @pytest.mark.parametrize("weights", [
        [w for _name, w in SILO_MIX],
        list(MIX_WEIGHTS.values()),
        [3, 0, 1, 6],
    ])
    def test_draws_as_generator_choice(self, weights):
        """Draw for draw and state for state ``rng.choice(n, p=w)``."""
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        ours, ref = make_rng(9, "mix"), make_rng(9, "mix")
        pick = WeightedChoice(p)
        drawn = [pick.draw(ours) for _ in range(10_000)]
        expected = [int(ref.choice(len(p), p=p)) for _ in range(10_000)]
        assert drawn == expected
        assert ours.bit_generator.state == ref.bit_generator.state
