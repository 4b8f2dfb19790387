"""Seeded inputs for the publish→deliver benchmark.

Everything here is plaintext bookkeeping owned by the benchmark: the
subscribers, their attribute sets and interests, the publications with
their metadata, policy and payload, and the expected delivery set of
each publication.  The program under test only ever sees the generated
inputs; it never computes what the benchmark expects.

Steadiness across seeds comes from stratification.  Every round of a
workload has the same make-up — the same number of publications, the
same multiset of (matching subscribers, subscribers denied by the
policy) pairs and of payload-size classes, the same number of interest
swaps — and a seed only chooses *which* subscribers, values, policies
and bytes fill those slots.  Interests keep their shape (one or two
constrained attributes, i.e. 4 or 8 HVE token positions) for the whole
run, so the matching work per broadcast is the same on every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# The program's default schema has attr00..attr09 with values v00..v15.
# Interests constrain attr00..attr02 only, drawing from small pools so
# several subscribers can want the same publication.
SCHEMA_ATTRS = tuple(f"attr{i:02d}" for i in range(10))
SCHEMA_VALUES = tuple(f"v{j:02d}" for j in range(16))
INTEREST_POOLS = {
    "attr00": SCHEMA_VALUES[:8],
    "attr01": SCHEMA_VALUES[:6],
    "attr02": SCHEMA_VALUES[:6],
}
# Two-attribute interests pair these attributes.
PAIRS = (("attr00", "attr01"), ("attr01", "attr02"), ("attr00", "attr02"))

# CP-ABE attribute universe; policies are conjunctions of 1-2 of these.
ABE_ATTRS = ("org:acme", "org:beta", "role:analyst", "role:ops", "clear:high")
POLICIES = tuple(
    (a,) for a in ABE_ATTRS
) + tuple(itertools.combinations(ABE_ATTRS, 2))

Constraint = tuple[tuple[str, str], ...]  # sorted (attribute, value) pairs

# untimed publications before the measured phase
WARMUP_PUBLICATIONS = 4


@dataclass(frozen=True)
class Subscriber:
    name: str
    attributes: frozenset[str]
    interests: tuple[Constraint, ...]


@dataclass(frozen=True)
class Publish:
    index: int
    metadata: tuple[tuple[str, str], ...]
    policy: tuple[str, ...]
    payload: bytes
    # the oracle: subscribers holding a matching interest when it is
    # published whose attributes satisfy the policy
    expected: frozenset[str]

    @property
    def policy_text(self) -> str:
        return " and ".join(self.policy)


@dataclass(frozen=True)
class Swap:
    index: int
    subscriber: str
    drop: Constraint
    add: Constraint


@dataclass(frozen=True)
class Shape:
    """The fixed make-up of one workload."""

    # interests held by each subscriber (a multiset, shuffled per seed)
    interests_per_subscriber: tuple[int, ...]
    # one round's publications: (matching subscribers, denied by policy)
    round_matches: tuple[tuple[int, int], ...]
    # payload sizes are log-uniform over this range, one stratum of it
    # per publication of a round
    payload_bytes: tuple[int, int]
    # interest swaps per round: (one-attribute, two-attribute).  Token
    # minting costs twice as much for two attributes; an uneven, fixed
    # split keeps the subscribe median inside one mode on every seed.
    round_swaps: tuple[int, int]


def interest_matches(constraint: Constraint, metadata: dict[str, str]) -> bool:
    """The benchmark's own plaintext predicate: equality on every
    constrained attribute."""
    return all(metadata[name] == value for name, value in constraint)


def policy_allows(policy: tuple[str, ...], attributes: frozenset[str]) -> bool:
    """A conjunction of literals holds iff its literals are a subset."""
    return set(policy) <= attributes


class Generator:
    """Deterministic round-by-round input stream for one seed.

    Holds the current interest of every subscriber, so publications
    generated after a swap are judged against the swapped interests.
    """

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(seed)
        self._ops = itertools.count()
        rng = self.rng
        counts = list(shape.interests_per_subscriber)
        rng.shuffle(counts)
        # half the interests constrain one attribute, half two
        arities = [1 + (i % 2) for i in range(sum(counts))]
        rng.shuffle(arities)
        subscribers = []
        for i, count in enumerate(counts):
            attributes = frozenset(rng.sample(ABE_ATTRS, 2 + (i % 2)))
            interests = tuple(self._interest(arities.pop()) for _ in range(count))
            subscribers.append(Subscriber(f"sub{i:02d}", attributes, interests))
        self.subscribers = tuple(subscribers)
        self.attributes = {s.name: s.attributes for s in subscribers}
        self.current = {s.name: list(s.interests) for s in subscribers}

    def _interest(self, arity: int) -> Constraint:
        rng = self.rng
        names = (rng.choice(tuple(INTEREST_POOLS)),) if arity == 1 else rng.choice(PAIRS)
        return tuple(sorted((name, rng.choice(INTEREST_POOLS[name])) for name in names))

    def _matched(self, metadata: dict[str, str]) -> frozenset[str]:
        return frozenset(
            name
            for name, interests in self.current.items()
            if any(interest_matches(c, metadata) for c in interests)
        )

    def _publish(self, want_matched: int, want_denied: int, size: int) -> Publish:
        rng = self.rng
        combos = list(
            itertools.product(*(INTEREST_POOLS[name] for name in INTEREST_POOLS))
        )
        rng.shuffle(combos)
        policies = list(POLICIES)
        best = None
        for combo in combos:
            metadata = {name: rng.choice(SCHEMA_VALUES) for name in SCHEMA_ATTRS}
            metadata.update(zip(INTEREST_POOLS, combo))
            matched = self._matched(metadata)
            if abs(len(matched) - want_matched) > (best[0] if best else 99):
                continue
            rng.shuffle(policies)
            for policy in policies:
                denied = sum(
                    1 for name in matched if not policy_allows(policy, self.attributes[name])
                )
                miss = abs(len(matched) - want_matched) + abs(denied - want_denied)
                if best is None or miss < best[0]:
                    best = (miss, metadata, policy, matched)
                if miss == 0:
                    break
            if best[0] == 0:
                break
        _, metadata, policy, matched = best
        expected = frozenset(
            name for name in matched if policy_allows(policy, self.attributes[name])
        )
        return Publish(
            index=next(self._ops),
            metadata=tuple(sorted(metadata.items())),
            policy=tuple(policy),
            payload=rng.randbytes(size),
            expected=expected,
        )

    def _swap(self, arity: int) -> Swap:
        """Replace one interest of the given arity, so the mix of interest
        shapes (and the matching work per broadcast) never changes."""
        rng = self.rng
        held = sorted(
            (name, slot)
            for name, interests in self.current.items()
            for slot, constraint in enumerate(interests)
            if len(constraint) == arity
        )
        name, slot = rng.choice(held)
        interests = self.current[name]
        drop = interests[slot]
        add = self._interest(arity)
        while add in interests:
            add = self._interest(arity)
        interests[slot] = add
        return Swap(index=next(self._ops), subscriber=name, drop=drop, add=add)

    def _slots(self) -> list[tuple[int, int, int]]:
        """(matching, denied, payload size) per publication of a round:
        payload sizes are stratified log-uniform samples."""
        low, high = self.shape.payload_bytes
        count = len(self.shape.round_matches)
        sizes = [
            int(low * (high / low) ** ((i + self.rng.random()) / count))
            for i in range(count)
        ]
        self.rng.shuffle(sizes)
        return [(m, d, size) for (m, d), size in zip(self.shape.round_matches, sizes)]

    def warmup(self) -> list[Publish]:
        """The untimed publications that precede the measured rounds."""
        slots = self._slots()[:WARMUP_PUBLICATIONS]
        return [self._publish(*slot) for slot in slots]

    def round(self) -> list[Publish | Swap]:
        """One round: the shape's publications in seeded order, with the
        swaps spread evenly between them."""
        slots = self._slots()
        self.rng.shuffle(slots)
        ones, twos = self.shape.round_swaps
        arities = [1] * ones + [2] * twos
        self.rng.shuffle(arities)
        swaps_before = [0] * len(slots)
        for j in range(len(arities)):
            swaps_before[j * len(slots) // len(arities)] += 1
        ops: list[Publish | Swap] = []
        for slot, swaps in zip(slots, swaps_before):
            ops.extend(self._swap(arities.pop()) for _ in range(swaps))
            ops.append(self._publish(*slot))
        return ops
