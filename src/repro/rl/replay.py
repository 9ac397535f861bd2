"""Experience replay buffer (paper §4.3).

:class:`ArrayReplayBuffer` is the storage engine.  Transitions live in
preallocated contiguous arrays (``(capacity, *state_shape)`` for states,
flat arrays for actions/rewards/dones), insertion writes into the ring slot
in place, and :meth:`ArrayReplayBuffer.sample_arrays` is a single
fancy-index gather with no per-sample stacking or Python-object traffic.

Sampling draws indices with ``rng.choice(size, batch, replace=False)`` —
the exact call the original list-backed buffer made — so seeded runs
reproduce the historical sampling stream bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.rl.environment import Transition
from repro.utils.seeding import RngLike, as_rng
from repro.utils.validation import check_positive_int


class ArrayReplayBuffer:
    """Fixed-capacity uniform experience replay over preallocated arrays.

    Parameters
    ----------
    capacity:
        Maximum number of transitions kept; the oldest are evicted first.
    state_shape:
        Shape of a single state.  May be omitted, in which case the storage
        is allocated lazily from the first transition added.
    seed:
        Seed or generator for the sampling stream.
    """

    def __init__(
        self,
        capacity: int,
        *,
        state_shape: Optional[Tuple[int, ...]] = None,
        seed: RngLike = None,
    ) -> None:
        self.capacity = check_positive_int(capacity, "capacity")
        self._rng = as_rng(seed)
        self._size = 0
        self._next_index = 0
        self._states: Optional[np.ndarray] = None
        self._next_states: Optional[np.ndarray] = None
        self._actions = np.zeros(self.capacity, dtype=int)
        self._rewards = np.zeros(self.capacity, dtype=float)
        self._dones = np.zeros(self.capacity, dtype=bool)
        self._infos: List[Dict[str, Any]] = [{} for _ in range(self.capacity)]
        if state_shape is not None:
            self._allocate(tuple(int(d) for d in state_shape))

    # -- storage -----------------------------------------------------------

    @property
    def state_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of a stored state, or None before the first insertion."""
        if self._states is None:
            return None
        return self._states.shape[1:]

    def _allocate(self, state_shape: Tuple[int, ...]) -> None:
        self._states = np.zeros((self.capacity, *state_shape), dtype=float)
        self._next_states = np.zeros((self.capacity, *state_shape), dtype=float)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Transition]:
        return iter([self._transition_at(i) for i in range(self._size)])

    @property
    def is_full(self) -> bool:
        """True once the buffer has reached its capacity."""
        return self._size == self.capacity

    def _transition_at(self, index: int) -> Transition:
        return Transition(
            self._states[index].copy(),
            int(self._actions[index]),
            float(self._rewards[index]),
            self._next_states[index].copy(),
            bool(self._dones[index]),
            info=self._infos[index],
        )

    # -- insertion ---------------------------------------------------------

    def add(self, transition: Transition) -> None:
        """Insert one transition, evicting the oldest when at capacity."""
        if not isinstance(transition, Transition):
            raise TypeError(f"expected Transition, got {type(transition).__name__}")
        self.add_step(
            transition.state,
            transition.action,
            transition.reward,
            transition.next_state,
            transition.done,
            info=transition.info,
        )

    def add_step(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        *,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Insert one step without constructing a :class:`Transition` object.

        This is the hot-path entry used by the vectorized rollout engine: the
        state arrays are copied straight into the ring slot.
        """
        state = np.asarray(state, dtype=float)
        next_state = np.asarray(next_state, dtype=float)
        if state.shape != next_state.shape:
            raise ValueError(
                f"state shape {state.shape} != next_state shape {next_state.shape}"
            )
        if self._states is None:
            self._allocate(state.shape)
        elif state.shape != self._states.shape[1:]:
            raise ValueError(
                f"state shape {state.shape} does not match buffer state shape "
                f"{self._states.shape[1:]}"
            )
        slot = self._next_index
        self._states[slot] = state
        self._next_states[slot] = next_state
        self._actions[slot] = int(action)
        self._rewards[slot] = float(reward)
        self._dones[slot] = bool(done)
        self._infos[slot] = dict(info) if info else {}
        self._next_index = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def extend(self, transitions: Sequence[Transition]) -> None:
        """Insert several transitions in order."""
        for transition in transitions:
            self.add(transition)

    def add_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
        *,
        infos: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ) -> None:
        """Insert K transitions with one strided ring write per storage array.

        This is the insertion half of the fused global-step learning path:
        the K lockstep transitions of one global step land in consecutive
        ring slots (wrapping modulo the capacity) via a single fancy-indexed
        assignment per array, instead of K Python-level :meth:`add_step`
        calls.  Equivalent to ``for t in batch: add_step(*t)`` — including
        eviction order when the write wraps past the end of the ring.
        """
        states = np.asarray(states, dtype=float)
        next_states = np.asarray(next_states, dtype=float)
        if states.shape != next_states.shape:
            raise ValueError(
                f"states shape {states.shape} != next_states shape {next_states.shape}"
            )
        if states.ndim < 2:
            raise ValueError("add_batch expects a leading batch dimension")
        count = states.shape[0]
        if count == 0:
            return
        actions = np.asarray(actions, dtype=int)
        rewards = np.asarray(rewards, dtype=float)
        dones = np.asarray(dones, dtype=bool)
        if actions.shape != (count,) or rewards.shape != (count,) or dones.shape != (count,):
            raise ValueError(
                "actions, rewards and dones must be 1-D arrays matching the batch size"
            )
        if infos is not None and len(infos) != count:
            raise ValueError(f"{len(infos)} infos for {count} transitions")
        if self._states is None:
            self._allocate(states.shape[1:])
        elif states.shape[1:] != self._states.shape[1:]:
            raise ValueError(
                f"state shape {states.shape[1:]} does not match buffer state shape "
                f"{self._states.shape[1:]}"
            )
        slots = (self._next_index + np.arange(count)) % self.capacity
        if count > self.capacity:
            # Only the last `capacity` transitions survive.  Keep the exact
            # suffix sequential insertion would have kept, in the exact ring
            # slots it would have landed them in.
            keep = slice(count - self.capacity, None)
            states, next_states = states[keep], next_states[keep]
            actions, rewards, dones = actions[keep], rewards[keep], dones[keep]
            infos = infos[keep] if infos is not None else None
            slots = slots[keep]
        self._states[slots] = states
        self._next_states[slots] = next_states
        self._actions[slots] = actions
        self._rewards[slots] = rewards
        self._dones[slots] = dones
        for position, slot in enumerate(slots):
            info = infos[position] if infos is not None else None
            self._infos[slot] = dict(info) if info else {}
        self._next_index = int((self._next_index + count) % self.capacity)
        self._size = min(self._size + count, self.capacity)

    # -- sampling ----------------------------------------------------------

    def sample_indices(self, batch_size: int) -> np.ndarray:
        """Draw ``batch_size`` distinct storage indices uniformly at random."""
        batch_size = check_positive_int(batch_size, "batch_size")
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} transitions from a buffer of size "
                f"{self._size}"
            )
        return self._rng.choice(self._size, size=batch_size, replace=False)

    def recent_indices(self, count: int) -> np.ndarray:
        """Storage indices of the ``count`` most recent insertions, oldest first.

        Handles ring wraparound: once the buffer is full the most recent
        window may straddle the physical end of the storage arrays, in which
        case the returned indices wrap modulo the capacity.  Together with
        :meth:`gather` this lets the fused learning step pull the K
        transitions of the current global step (plus random fill) in a single
        fancy-indexed gather.
        """
        count = check_positive_int(count, "count")
        if count > self._size:
            raise ValueError(
                f"cannot take the {count} most recent transitions from a buffer "
                f"of size {self._size}"
            )
        # Before the first wraparound `_next_index == _size`, so the same
        # modular arithmetic covers both the partially-filled and full ring.
        return (self._next_index - count + np.arange(count)) % self.capacity

    def gather(self, indices: np.ndarray):
        """Fetch the transitions at ``indices`` as stacked arrays.

        One fancy-index gather per storage array; the same return layout as
        :meth:`sample_arrays`.  ``indices`` are storage indices (e.g. from
        :meth:`sample_indices` or :meth:`recent_indices`) and may repeat.
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self._size):
            raise IndexError(
                f"storage index out of range for buffer of size {self._size}"
            )
        return (
            self._states[indices],
            self._actions[indices],
            self._rewards[indices],
            self._next_states[indices],
            self._dones[indices],
        )

    def sample(self, batch_size: int) -> List[Transition]:
        """Sample ``batch_size`` transitions uniformly without replacement.

        Raises if the buffer holds fewer than ``batch_size`` transitions, so
        callers are forced to warm up the buffer before learning starts.
        """
        indices = self.sample_indices(batch_size)
        return [self._transition_at(int(i)) for i in indices]

    def sample_arrays(self, batch_size: int):
        """Sample a batch as stacked arrays ready for the Q-network.

        Returns
        -------
        tuple
            ``(states, actions, rewards, next_states, dones)`` with shapes
            ``(B, …)``, ``(B,)``, ``(B,)``, ``(B, …)``, ``(B,)``.
        """
        return self.gather(self.sample_indices(batch_size))

    def clear(self) -> None:
        """Drop all stored transitions (storage stays allocated)."""
        self._size = 0
        self._next_index = 0
        self._infos = [{} for _ in range(self.capacity)]

    # -- round-tripping ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Serializable buffer state: contents in insertion order + RNG stream.

        The ring's physical layout is fully determined by ``(size,
        next_index, contents-in-insertion-order)`` — before the first
        wraparound insertions occupy slots ``0..size-1``, afterwards slot
        ``(next_index + i) % capacity`` holds the ``i``-th oldest surviving
        transition — so the state stores only the live transitions (gathered
        oldest-first), not the full preallocated arrays.  ``info`` dicts are
        not serialized; the batched serving path never populates them.
        """
        from repro.utils.statedict import encode_array, rng_state

        state: Dict[str, Any] = {
            "capacity": self.capacity,
            "size": self._size,
            "next_index": self._next_index,
            "rng": rng_state(self._rng),
            "contents": None,
        }
        if self._size:
            order = (self._next_index - self._size + np.arange(self._size)) % self.capacity
            states, actions, rewards, next_states, dones = self.gather(order)
            state["contents"] = {
                "states": encode_array(states),
                "actions": encode_array(actions),
                "rewards": encode_array(rewards),
                "next_states": encode_array(next_states),
                "dones": encode_array(dones),
            }
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output bitwise (layout and RNG stream)."""
        from repro.utils.statedict import decode_array, set_rng_state

        if int(state["capacity"]) != self.capacity:
            raise ValueError(
                f"checkpoint replay capacity {state['capacity']} does not match "
                f"this buffer's capacity {self.capacity}"
            )
        self.clear()
        size = int(state["size"])
        next_index = int(state["next_index"])
        contents = state["contents"]
        if size:
            states = decode_array(contents["states"])
            if self._states is None:
                self._allocate(states.shape[1:])
            slots = (next_index - size + np.arange(size)) % self.capacity
            self._states[slots] = states
            self._next_states[slots] = decode_array(contents["next_states"])
            self._actions[slots] = decode_array(contents["actions"])
            self._rewards[slots] = decode_array(contents["rewards"])
            self._dones[slots] = decode_array(contents["dones"])
        self._size = size
        self._next_index = next_index
        set_rng_state(self._rng, state["rng"])
