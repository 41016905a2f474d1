"""Set partitions of {1..n}, non-crossing partitions, and counting helpers.

Partitions are stored canonically: every block sorted ascending, blocks ordered
by their minimum element. The lattice order is reverse refinement, so the
all-singletons partition is the bottom element and the one-block partition the
top. Enumeration follows restricted-growth-string lexicographic order, which
keeps golden tests deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

ENUMERATION_CAP = 12


class SizeLimitError(ValueError):
    """Raised when an enumeration request exceeds ENUMERATION_CAP."""


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks, canonically ordered."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks do not cover 1..{n}")
        return SetPartition(n, canon)

    @property
    def size(self) -> int:
        """Number of blocks, |pi|."""
        return len(self.blocks)

    def block_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return out


@dataclass(frozen=True)
class BlockClassification:
    """Inner/outer/singleton indices into a non-crossing partition's block list."""

    inner: frozenset[int]
    outer: frozenset[int]
    singletons: frozenset[int]


def adjacent_pairing(pairs: int) -> SetPartition:
    """The pairing {(1,2),(3,4),...,(2k-1,2k)} on 2k elements."""
    return SetPartition(2 * pairs, tuple((2 * i + 1, 2 * i + 2) for i in range(pairs)))


def _check_cap(n: int) -> None:
    # ENUMERATION_CAP is read at call time, so tests can lower it
    if n > ENUMERATION_CAP:
        raise SizeLimitError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")


def enumerate_set_partitions(n: int) -> list[SetPartition]:
    """All partitions of {1..n} in restricted-growth-string lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_cap(n)
    results: list[SetPartition] = []
    rgs = [0] * n

    def rec(i: int, used: int) -> None:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for pos, label in enumerate(rgs):
                blocks[label].append(pos + 1)
            results.append(SetPartition(n, tuple(tuple(b) for b in blocks)))
            return
        for label in range(used + 1):
            rgs[i] = label
            rec(i + 1, max(used, label + 1))

    rec(0, 0)
    return results


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    runs = 1
    for (_, s), (_, t) in zip(merged, merged[1:]):
        if s != t:
            runs += 1
    return runs >= 4


def is_noncrossing(p: SetPartition) -> bool:
    blocks = p.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if _blocks_cross(blocks[i], blocks[j]):
                return False
    return True


def classify_blocks(p: SetPartition) -> BlockClassification:
    """Split a non-crossing partition's blocks into inner, outer, and singletons.

    A block V is inner when some other block W has elements on both sides of V,
    i.e. min(W) < min(V) and max(V) < max(W).
    """
    if not is_noncrossing(p):
        raise ValueError("classify_blocks requires a non-crossing partition")
    return _classify_unchecked(p)


def _classify_unchecked(p: SetPartition) -> BlockClassification:
    # for callers whose input is non-crossing by construction
    inner = set()
    for i, v in enumerate(p.blocks):
        for j, w in enumerate(p.blocks):
            if i != j and w[0] < v[0] and v[-1] < w[-1]:
                inner.add(i)
                break
    outer = frozenset(range(len(p.blocks))) - inner
    singles = frozenset(i for i, b in enumerate(p.blocks) if len(b) == 1)
    return BlockClassification(frozenset(inner), outer, singles)


def _noncrossing(n: int, word=None) -> list[tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]]:
    # Every non-crossing partition of {1..n} with per-block inner flags, built
    # directly. A stack holds the open blocks; each element joins one of them
    # or opens a new block on top. Joining a block closes every block above
    # it, and exactly those closed blocks are inner: the joined block has
    # elements on both sides of them. Trying the open blocks bottom-up, then
    # the new block, yields restricted-growth-string lexicographic order.
    # Given a word of length n, element x joins only blocks whose first
    # element carries the same letter, so only partitions finer than the
    # word's kernel are generated; the flags of those are unchanged.
    out = []
    blocks: list[list[int]] = []
    inner: list[bool] = []
    stack: list[int] = []

    def rec(x: int) -> None:
        if x > n:
            out.append((tuple(map(tuple, blocks)), tuple(inner)))
            return
        for depth in range(len(stack)):
            if word is not None and word[blocks[stack[depth]][0] - 1] != word[x - 1]:
                continue
            closed = stack[depth + 1:]
            del stack[depth + 1:]
            for label in closed:
                inner[label] = True
            blocks[stack[depth]].append(x)
            rec(x + 1)
            blocks[stack[depth]].pop()
            for label in closed:
                inner[label] = False
            stack.extend(closed)
        stack.append(len(blocks))
        blocks.append([x])
        inner.append(False)
        rec(x + 1)
        inner.pop()
        blocks.pop()
        stack.pop()

    rec(1)
    return out


@lru_cache(maxsize=None)
def _nc_table(n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]], ...]:
    """Cached (blocks, inner_flags) of every non-crossing partition of {1..n}."""
    _check_cap(n)
    return tuple(_noncrossing(n))


def _pairs_and_singletons(labels: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    # All non-crossing pair/singleton partitions of an ordered label list. The
    # first element is either a singleton or paired with some later element,
    # which splits the remainder into independent inside/outside segments.
    if not labels:
        return [()]
    head, rest = labels[0], labels[1:]
    out: list[tuple[tuple[int, ...], ...]] = []
    for tail in _pairs_and_singletons(rest):
        out.append(((head,),) + tail)
    for j, mate in enumerate(rest):
        inside = rest[:j]
        outside = rest[j + 1:]
        for pin in _pairs_and_singletons(inside):
            for pout in _pairs_and_singletons(outside):
                out.append(((head, mate),) + pin + pout)
    return out


def enumerate_nc(n: int, *, pairs_and_singletons: bool = False) -> list[SetPartition]:
    """Non-crossing partitions of {1..n}, optionally only pair/singleton ones.

    Both routes generate the partitions directly, without enumerating the
    full partition lattice: pair/singleton ones by a first-element recursion
    (uncapped), all others by an open-block stack in restricted-growth-string
    order, subject to the cap.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if pairs_and_singletons:
        return [SetPartition.from_blocks(n, blocks) for blocks in _pairs_and_singletons(tuple(range(1, n + 1)))]
    _check_cap(n)
    return [SetPartition(n, blocks) for blocks, _ in _noncrossing(n)]


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when every block of p is contained in a block of q (p <= q)."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    owner = q.block_map()
    for block in p.blocks:
        if len({owner[x] for x in block}) != 1:
            return False
    return True


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Smallest partition refined by both: transitive closure of the union."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    parent = list(range(p.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (p, q):
        for block in part.blocks:
            for x in block[1:]:
                union(block[0], x)
    groups: dict[int, list[int]] = {}
    for x in range(1, p.n + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition.from_blocks(p.n, groups.values())


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

