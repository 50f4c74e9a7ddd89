"""Deterministic pseudo-random streams for reproducible generation and training.

The generator is xoshiro256** seeded through splitmix64, implemented in plain
integer arithmetic.  Neither ``random`` nor ``numpy.random`` is used for
anything that lands in an artifact: their streams are only stable per release,
and regenerating a benchmark or checkpoint must be byte-identical years later.

Child streams are derived by absorbing a sequence of tags (ints or strings)
into the parent seed, so independent concerns (noise, splits, init, proxies)
never share or race a stream.  String tags are hashed with FNV-1a 64.

``batch_u64(streams, sizes)`` draws many u64s from many streams in one NumPy
pass.  Its contract: stream j's array is bit-identical to ``sizes[j]`` calls
of ``streams[j].next_u64()``, and stream j ends advanced by exactly
``sizes[j]`` draws, so scalar draws after a batch continue the same sequence.
It works because xoshiro256** is linear over GF(2): one step is a 256x256 bit
matrix T.  A stream's draws are cut into lanes of LANE_STEPS draws; lane k
starts at T^(k*LANE_STEPS) applied to the stream's state (jump-ahead, as in
Haramoto et al., INFORMS JoC 2008), and every lane of every stream then
steps in lockstep as ``uint64`` arrays.  A jump is one float32 product of
state bits and the bit matrix; each sum counts at most 256 ones, so it is
exact, and its integer parity (``uint16`` cast, ``& 1``) is the jumped bit.
``batch_normal(streams, count)`` keeps the same contract for ``count`` calls
of ``normal`` per stream.

``child_streams(parent, tag, ids)`` equals ``[parent.child(tag, i) for i in
ids]`` in seed and state, with the id absorptions and the seeding splitmix64
steps run on ``uint64`` arrays.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


@functools.lru_cache(maxsize=256)
def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _splitmix64_array(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_splitmix64`` of every element of a uint64 array."""
    state = state + 0x9E3779B97F4A7C15
    z = state ^ (state >> 30)
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


# draws per lane in batch_u64: lane k of a stream starts k * LANE_STEPS draws in
LANE_STEPS = 256


def _lockstep(state: np.ndarray, steps: int, stops: dict | None = None,
              final: np.ndarray | None = None) -> np.ndarray:
    """Step every column of a (4, lanes) uint64 state ``steps`` times in
    place and return the (steps + 1, lanes) history of its s1 word, from
    which draw i is ``_scramble(history[i])``.  ``stops`` maps a step count
    to (lanes, columns): after that many steps those lanes' states are
    copied into those columns of ``final``.  All arithmetic is on uint64
    arrays, which wrap silently, never on NumPy scalars, which warn on
    overflow."""
    s0, _, s2, s3 = state
    history = np.empty((steps + 1, state.shape[1]), dtype=np.uint64)
    history[0] = state[1]
    t, u = np.empty_like(s0), np.empty_like(s0)
    for step in range(steps):
        s1, s1_next = history[step], history[step + 1]
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        np.bitwise_xor(s1, s2, out=s1_next)
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=u)  # s3 = rotl(s3, 45)
        s3 >>= 19
        s3 |= u
        if stops and step + 1 in stops:
            lanes, columns = stops[step + 1]
            final[:, columns] = (s0[lanes], s1_next[lanes], s2[lanes], s3[lanes])
    state[1] = history[steps]
    return history


def _scramble(x: np.ndarray) -> None:
    """xoshiro256**'s output function rotl(s1 * 5, 7) * 9, in place."""
    x *= 5
    high = x >> 57
    x <<= 7
    x |= high
    x *= 9


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(m, 4) uint64 states -> (m, 256) bits, bit 64*w + b of word w's bit b."""
    return np.unpackbits(np.ascontiguousarray(words, "<u8").view(np.uint8), axis=1,
                         bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits.astype(np.uint8), axis=1,
                       bitorder="little").view("<u8").astype(np.uint64)


@functools.cache
def _lane_jump() -> np.ndarray:
    """T^LANE_STEPS as a float32 bit matrix acting on row vectors: row i is
    the state reached from unit state e_i, so a state's bits x jump to
    ``x @ J mod 2``.  Built by stepping the 256 unit states in lockstep."""
    state = np.ascontiguousarray(_from_bits(np.eye(256, dtype=np.uint8)).T)
    _lockstep(state, LANE_STEPS)
    jump = _to_bits(state.T).astype(np.float32)
    jump.flags.writeable = False  # one cached copy serves every caller
    return jump


def batch_u64(streams: list["Rng"], sizes: list[int]) -> list[np.ndarray]:
    """``sizes[j]`` u64 draws of each ``streams[j]`` as uint64 arrays,
    bit-identical to scalar ``next_u64`` calls; each stream advances by
    exactly its size."""
    sizes = [operator.index(n) for n in sizes]
    flat = _draw_flat(streams, sizes)
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return [flat[end - n:end] for n, end in zip(sizes, ends)]


def _draw_flat(streams: list["Rng"], sizes: list[int]) -> np.ndarray:
    """batch_u64's draws as one uint64 array, stream after stream."""
    if len(streams) != len(sizes):
        raise ValueError(f"{len(streams)} streams but {len(sizes)} sizes")
    if len({id(s) for s in streams}) != len(streams):
        raise ValueError("a stream appears twice in one batch")
    sizes = np.array([operator.index(n) for n in sizes], dtype=np.int64)
    if (sizes < 0).any():
        raise ValueError(f"sizes must be non-negative, got {sizes.min()}")
    lanes = -(-sizes // LANE_STEPS)
    ends = np.cumsum(lanes)
    starts = ends - lanes
    live = np.flatnonzero(lanes)
    state = np.array([[streams[j]._s0, streams[j]._s1, streams[j]._s2, streams[j]._s3]
                      for j in live.tolist()], dtype=np.uint64).reshape(-1, 4)
    if lanes.max(initial=0) > 1:
        # every lane's start state, as bits; lane k of a stream is one jump
        # past lane k - 1
        bits = np.empty((int(lanes.sum()), 256), dtype=np.float32)
        bits[starts[live]] = _to_bits(state)
        for k in range(1, int(lanes.max())):
            rows = starts[lanes > k] + k
            # each sum counts at most 256 ones, exact in float32; its low
            # bit, by integer parity, is the jumped state's bit
            bits[rows] = np.matmul(bits[rows - 1], _lane_jump()).astype(np.uint16) & 1
        state = _from_bits(bits)
    state = np.ascontiguousarray(state.T)
    # a stream ends where its last lane stops, after its remaining draws
    rest = sizes[live] - (lanes[live] - 1) * LANE_STEPS
    stops = {r: (ends[live][rest == r] - 1, np.flatnonzero(rest == r))
             for r in np.unique(rest).tolist()}
    final = np.empty((4, len(live)), dtype=np.uint64)
    steps = int(min(sizes.max(initial=0), LANE_STEPS))
    out = _lockstep(state, steps, stops, final)[:steps]
    _scramble(out)
    for j, words in zip(live.tolist(), final.T.tolist()):
        stream = streams[j]
        stream._s0, stream._s1, stream._s2, stream._s3 = words
    # each stream's lanes, one after another: every lane is full but a
    # stream's last, which holds its remaining draws
    lane_len = np.full(int(lanes.sum()), LANE_STEPS)
    lane_len[ends[live] - 1] = rest
    return out.T[np.arange(steps) < lane_len[:, None]]


def batch_normal(streams: list["Rng"], count: int, mu: float = 0.0,
                 sigma: float = 1.0) -> np.ndarray:
    """``count`` normal draws of each stream as a (len(streams), count)
    float64 array, bit-identical to ``count`` scalar ``normal(mu, sigma)``
    calls per stream, and each stream ends where those calls leave it.

    Each round draws two u64s per normal a stream still lacks: the polar
    method takes at least that many, so no stream is advanced past the
    pairs its scalar calls would consume, and the accepted pairs of a round
    all land in order.  ``math.log`` is taken per value, because ``np.log``
    need not round as it does; every other step is one IEEE operation,
    done in the scalar order."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    out = np.empty((len(streams), operator.index(count)), dtype=np.float64)
    filled = np.zeros(len(streams), dtype=np.int64)
    live = np.arange(len(streams) if count > 0 else 0)
    while live.size:
        wanted = count - filled[live]
        draws = _draw_flat([streams[j] for j in live.tolist()], (2 * wanted).tolist())
        uv = 2.0 * ((draws >> 11).astype(np.float64) * (1.0 / (1 << 53))) - 1.0
        u, v = uv[0::2], uv[1::2]
        s = u * u + v * v
        ok = (0.0 < s) & (s < 1.0)
        # the accepted pairs of each stream fill its next free slots in order
        owner = np.repeat(np.arange(live.size), wanted)[ok]
        taken = np.bincount(owner, minlength=live.size)
        slot = np.arange(owner.size) - (np.cumsum(taken) - taken)[owner]
        s = s[ok]
        logs = np.array([math.log(x) for x in s.tolist()], dtype=np.float64)
        out[live[owner], filled[live][owner] + slot] = (
            mu + sigma * u[ok] * np.sqrt(-2.0 * logs / s))
        filled[live] += taken
        live = live[filled[live] < count]
    return out


def child_streams(parent: "Rng", tag: int | str, ids) -> list["Rng"]:
    """``[parent.child(tag, i) for i in ids]``, with the id absorption and
    each child's seeding run as uint64 array code: one splitmix64 of
    ``seed ^ id`` per id, then ``Rng.__init__``'s four splitmix64 words and
    its all-zero guard.  Ids are masked to 64 bits, as ``child`` masks them."""
    # child(tag, i) is child(tag).child(i): absorption is sequential
    prefix = parent.child(tag).seed
    ids = np.array([operator.index(i) & _MASK for i in ids], dtype=np.uint64)
    _, seeds = _splitmix64_array(ids ^ prefix)
    words, state = np.empty((4, ids.size), dtype=np.uint64), seeds
    for w in range(4):
        state, words[w] = _splitmix64_array(state)
    words[0, ~words.any(axis=0)] = 1
    streams = []
    for seed, s0, s1, s2, s3 in zip(seeds.tolist(), *words.tolist()):
        stream = Rng.__new__(Rng)
        stream._seed, stream._s0, stream._s1, stream._s2, stream._s3 = (
            seed, s0, s1, s2, s3)
        streams.append(stream)
    return streams


class Rng:
    """xoshiro256** stream with unbiased integer draws and polar normals."""

    __slots__ = ("_seed", "_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be int, got {type(seed).__name__}")
        self._seed = seed & _MASK
        state = self._seed
        state, self._s0 = _splitmix64(state)
        state, self._s1 = _splitmix64(state)
        state, self._s2 = _splitmix64(state)
        state, self._s3 = _splitmix64(state)
        # xoshiro must not start at the all-zero state
        if self._s0 == self._s1 == self._s2 == self._s3 == 0:
            self._s0 = 1

    @property
    def seed(self) -> int:
        return self._seed

    def child(self, *tags: int | str) -> "Rng":
        """Derive an independent stream keyed by the parent seed and tags."""
        if not tags:
            raise ValueError("child() requires at least one tag")
        state = self._seed
        for tag in tags:
            if isinstance(tag, str):
                value = _fnv1a(tag)
            elif isinstance(tag, int):
                value = tag & _MASK
            else:
                raise TypeError(f"tag must be int or str, got {type(tag).__name__}")
            state, out = _splitmix64(state ^ value)
            state = out
        return Rng(state)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform int in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        # largest multiple of n that fits in 64 bits
        threshold = ((1 << 64) - ((1 << 64) % n)) & _MASK
        if threshold == 0:
            threshold = 1 << 64
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Marsaglia polar method; the second deviate is discarded to keep
        the stream position independent of call pairing."""
        if sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                return mu + sigma * u * math.sqrt(-2.0 * math.log(s) / s)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, population: list, k: int) -> list:
        """k distinct elements, uniform over subsets, in draw order."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from population of {n}")
        # partial Fisher-Yates over virtual indices
        swapped: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            out.append(population[swapped.get(j, j)])
            swapped[j] = swapped.get(i, i)
        return out
