"""Tests for repro.rl.replay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.environment import Transition
from repro.rl.replay import ArrayReplayBuffer
from repro.utils.seeding import as_rng


class _LegacyReplayBuffer:
    """The original list-of-Transition implementation, kept as a test oracle."""

    def __init__(self, capacity, *, seed=None):
        self.capacity = capacity
        self._storage = []
        self._next_index = 0
        self._rng = as_rng(seed)

    def add(self, transition):
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._next_index] = transition
        self._next_index = (self._next_index + 1) % self.capacity

    def sample_arrays(self, batch_size):
        indices = self._rng.choice(len(self._storage), size=batch_size, replace=False)
        batch = [self._storage[int(i)] for i in indices]
        states = np.stack([t.state for t in batch])
        actions = np.asarray([t.action for t in batch], dtype=int)
        rewards = np.asarray([t.reward for t in batch], dtype=float)
        next_states = np.stack([t.next_state for t in batch])
        dones = np.asarray([t.done for t in batch], dtype=bool)
        return states, actions, rewards, next_states, dones


def make_transition(index, done=False):
    state = np.full((2, 3), float(index))
    return Transition(state, index % 3, float(index), state + 1, done, info={"i": index})


class TestAdd:
    def test_length_grows_until_capacity(self):
        buffer = ArrayReplayBuffer(5, seed=0)
        for i in range(8):
            buffer.add(make_transition(i))
        assert len(buffer) == 5
        assert buffer.is_full

    def test_oldest_evicted_first(self):
        buffer = ArrayReplayBuffer(3, seed=0)
        for i in range(5):
            buffer.add(make_transition(i))
        stored = {t.info["i"] for t in buffer}
        assert stored == {2, 3, 4}

    def test_rejects_non_transition(self):
        buffer = ArrayReplayBuffer(3, seed=0)
        with pytest.raises(TypeError):
            buffer.add((np.zeros(2), 0, 0.0, np.zeros(2), False))

    def test_extend(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        buffer.extend([make_transition(i) for i in range(4)])
        assert len(buffer) == 4

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            ArrayReplayBuffer(0)


class TestSample:
    def test_sample_size_respected(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        buffer.extend([make_transition(i) for i in range(10)])
        assert len(buffer.sample(4)) == 4

    def test_sample_without_duplicates(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        buffer.extend([make_transition(i) for i in range(10)])
        sampled = buffer.sample(10)
        indices = [t.info["i"] for t in sampled]
        assert sorted(indices) == list(range(10))

    def test_sampling_more_than_stored_raises(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        buffer.add(make_transition(0))
        with pytest.raises(ValueError):
            buffer.sample(2)

    def test_sample_arrays_shapes(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        buffer.extend([make_transition(i, done=(i % 2 == 0)) for i in range(6)])
        states, actions, rewards, next_states, dones = buffer.sample_arrays(4)
        assert states.shape == (4, 2, 3)
        assert next_states.shape == (4, 2, 3)
        assert actions.shape == (4,) and actions.dtype == int
        assert rewards.shape == (4,)
        assert dones.dtype == bool

    def test_sampling_is_seed_deterministic(self):
        def collect(seed):
            buffer = ArrayReplayBuffer(20, seed=seed)
            buffer.extend([make_transition(i) for i in range(20)])
            return [t.info["i"] for t in buffer.sample(5)]

        assert collect(3) == collect(3)


class TestClear:
    def test_clear_empties_buffer(self):
        buffer = ArrayReplayBuffer(5, seed=0)
        buffer.extend([make_transition(i) for i in range(5)])
        buffer.clear()
        assert len(buffer) == 0
        buffer.add(make_transition(99))
        assert len(buffer) == 1


class TestTransition:
    def test_state_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Transition(np.zeros((2, 2)), 0, 0.0, np.zeros((2, 3)), False)

    def test_states_coerced_to_float(self):
        t = Transition(np.zeros((2, 2), dtype=int), 0, 0.0, np.ones((2, 2), dtype=int), False)
        assert t.state.dtype == float and t.next_state.dtype == float


class TestRingEviction:
    def test_wraparound_overwrites_in_ring_order(self):
        buffer = ArrayReplayBuffer(4, seed=0)
        for i in range(11):  # wraps the ring twice, ends mid-ring
            buffer.add(make_transition(i))
        kept = sorted(t.info["i"] for t in buffer)
        assert kept == [7, 8, 9, 10]
        # The slot contents follow ring order: index 11 lands in slot 3 next.
        buffer.add(make_transition(11))
        assert sorted(t.info["i"] for t in buffer) == [8, 9, 10, 11]

    def test_states_survive_wraparound_intact(self):
        buffer = ArrayReplayBuffer(3, seed=0)
        for i in range(7):
            buffer.add(make_transition(i))
        for transition in buffer:
            assert np.all(transition.state == float(transition.info["i"]))
            assert np.all(transition.next_state == float(transition.info["i"]) + 1)


class TestSampleDeterminism:
    def test_sample_arrays_is_seed_deterministic(self):
        def collect(seed):
            buffer = ArrayReplayBuffer(20, seed=seed)
            buffer.extend([make_transition(i) for i in range(20)])
            return buffer.sample_arrays(6)

        first = collect(7)
        second = collect(7)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        def actions(seed):
            buffer = ArrayReplayBuffer(50, seed=seed)
            buffer.extend([make_transition(i) for i in range(50)])
            return buffer.sample_arrays(10)[1].tolist()

        assert actions(1) != actions(2)


class TestLegacyParity:
    """The array-backed buffer must reproduce the original list-backed buffer."""

    def test_sample_arrays_identical_to_legacy(self):
        transitions = [make_transition(i, done=(i % 3 == 0)) for i in range(25)]
        new = ArrayReplayBuffer(16, seed=123)
        old = _LegacyReplayBuffer(16, seed=123)
        for t in transitions:  # both wrap: 25 inserts into capacity 16
            new.add(t)
            old.add(t)
        for _ in range(5):  # consume several draws from both streams
            got = new.sample_arrays(8)
            expected = old.sample_arrays(8)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_sample_transitions_identical_to_legacy(self):
        new = ArrayReplayBuffer(10, seed=9)
        old = _LegacyReplayBuffer(10, seed=9)
        for i in range(10):
            new.add(make_transition(i))
            old.add(make_transition(i))
        sampled = new.sample(10)
        indices = [t.info["i"] for t in sampled]
        legacy_indices = [t.info["i"] for t in [old._storage[int(j)] for j in old._rng.choice(10, size=10, replace=False)]]
        assert indices == legacy_indices


class TestAddStep:
    def test_add_step_equivalent_to_add(self):
        via_add = ArrayReplayBuffer(8, seed=0)
        via_step = ArrayReplayBuffer(8, seed=0)
        for i in range(8):
            t = make_transition(i, done=(i == 7))
            via_add.add(t)
            via_step.add_step(t.state, t.action, t.reward, t.next_state, t.done, info=t.info)
        for a, b in zip(via_add.sample_arrays(8), via_step.sample_arrays(8)):
            assert np.array_equal(a, b)

    def test_state_shape_mismatch_raises(self):
        buffer = ArrayReplayBuffer(4, state_shape=(2, 3), seed=0)
        with pytest.raises(ValueError):
            buffer.add_step(np.zeros((3, 3)), 0, 0.0, np.zeros((3, 3)), False)

    def test_preallocated_state_shape(self):
        buffer = ArrayReplayBuffer(4, state_shape=(2, 3), seed=0)
        assert buffer.state_shape == (2, 3)
        buffer.add(make_transition(0))
        assert len(buffer) == 1


class TestProperty:
    @given(capacity=st.integers(1, 30), inserts=st.integers(0, 80))
    @settings(max_examples=30, deadline=None)
    def test_length_never_exceeds_capacity(self, capacity, inserts):
        buffer = ArrayReplayBuffer(capacity, seed=0)
        for i in range(inserts):
            buffer.add(make_transition(i))
        assert len(buffer) == min(capacity, inserts)

    @given(capacity=st.integers(1, 20), inserts=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_buffer_keeps_most_recent_transitions(self, capacity, inserts):
        buffer = ArrayReplayBuffer(capacity, seed=0)
        for i in range(inserts):
            buffer.add(make_transition(i))
        kept = sorted(t.info["i"] for t in buffer)
        expected = list(range(max(0, inserts - capacity), inserts))
        assert kept == expected


class TestBatchedInsertion:
    """add_batch must be indistinguishable from sequential add_step calls."""

    def _batch(self, start, count):
        states = np.stack([np.full((2, 3), float(i)) for i in range(start, start + count)])
        actions = np.arange(start, start + count) % 3
        rewards = np.arange(start, start + count, dtype=float)
        dones = (np.arange(start, start + count) % 4) == 0
        return states, actions, rewards, states + 1, dones

    def _assert_same_storage(self, left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert np.array_equal(a.state, b.state)
            assert a.action == b.action and a.reward == b.reward
            assert np.array_equal(a.next_state, b.next_state)
            assert a.done == b.done and a.info == b.info

    def test_add_batch_matches_sequential_adds(self):
        batched = ArrayReplayBuffer(10, seed=0)
        sequential = ArrayReplayBuffer(10, seed=0)
        states, actions, rewards, next_states, dones = self._batch(0, 6)
        infos = [{"i": i} for i in range(6)]
        batched.add_batch(states, actions, rewards, next_states, dones, infos=infos)
        for i in range(6):
            sequential.add_step(
                states[i], actions[i], rewards[i], next_states[i], dones[i], info=infos[i]
            )
        self._assert_same_storage(list(batched), list(sequential))

    def test_add_batch_wraps_around_the_ring(self):
        batched = ArrayReplayBuffer(5, seed=0)
        sequential = ArrayReplayBuffer(5, seed=0)
        for start, count in ((0, 3), (3, 4), (7, 2)):  # second write wraps
            args = self._batch(start, count)
            batched.add_batch(*args)
            for i in range(count):
                sequential.add_step(*(a[i] for a in args))
        self._assert_same_storage(list(batched), list(sequential))
        assert batched._next_index == sequential._next_index

    def test_add_batch_larger_than_capacity_keeps_suffix(self):
        batched = ArrayReplayBuffer(4, seed=0)
        sequential = ArrayReplayBuffer(4, seed=0)
        args = self._batch(0, 11)
        batched.add_batch(*args)
        for i in range(11):
            sequential.add_step(*(a[i] for a in args))
        self._assert_same_storage(list(batched), list(sequential))

    def test_mismatched_batch_lengths_raise(self):
        buffer = ArrayReplayBuffer(8, seed=0)
        states, actions, rewards, next_states, dones = self._batch(0, 4)
        with pytest.raises(ValueError):
            buffer.add_batch(states, actions[:3], rewards, next_states, dones)
        with pytest.raises(ValueError):
            buffer.add_batch(states, actions, rewards, next_states[:3], dones)

    def test_empty_batch_is_a_no_op(self):
        buffer = ArrayReplayBuffer(8, seed=0, state_shape=(2, 3))
        buffer.add_batch(
            np.empty((0, 2, 3)), np.empty(0, int), np.empty(0), np.empty((0, 2, 3)), np.empty(0, bool)
        )
        assert len(buffer) == 0


class TestRecentIndicesAndGather:
    """The fused learning step's strided gather must survive wraparound."""

    def test_recent_indices_before_wraparound(self):
        buffer = ArrayReplayBuffer(10, seed=0)
        for i in range(6):
            buffer.add(make_transition(i))
        indices = buffer.recent_indices(4)
        assert indices.tolist() == [2, 3, 4, 5]

    def test_recent_indices_straddle_the_wraparound(self):
        buffer = ArrayReplayBuffer(5, seed=0)
        for i in range(8):  # next write slot is 3; newest entries are 4..7
            buffer.add(make_transition(i))
        indices = buffer.recent_indices(4)
        states, actions, rewards, next_states, dones = buffer.gather(indices)
        # Oldest-to-newest of the last four insertions: 4, 5, 6, 7.
        assert rewards.tolist() == [4.0, 5.0, 6.0, 7.0]
        assert np.array_equal(states[0], np.full((2, 3), 4.0))
        assert np.array_equal(next_states[-1], np.full((2, 3), 8.0))

    def test_recent_more_than_stored_raises(self):
        buffer = ArrayReplayBuffer(5, seed=0)
        buffer.add(make_transition(0))
        with pytest.raises(ValueError):
            buffer.recent_indices(2)

    def test_gather_matches_per_index_fetch(self):
        buffer = ArrayReplayBuffer(7, seed=0)
        for i in range(11):
            buffer.add(make_transition(i, done=(i % 2 == 0)))
        indices = np.array([0, 3, 3, 6])  # repeats allowed
        states, actions, rewards, next_states, dones = buffer.gather(indices)
        for row, index in enumerate(indices):
            reference = buffer._transition_at(int(index))
            assert np.array_equal(states[row], reference.state)
            assert actions[row] == reference.action
            assert rewards[row] == reference.reward
            assert np.array_equal(next_states[row], reference.next_state)
            assert dones[row] == reference.done

    def test_gather_out_of_range_raises(self):
        buffer = ArrayReplayBuffer(5, seed=0)
        buffer.add(make_transition(0))
        with pytest.raises(IndexError):
            buffer.gather(np.array([5]))
