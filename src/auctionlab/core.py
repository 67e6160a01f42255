"""Domain primitives for combinatorial-auction experiments.

Bundles are plain int bitmasks over item indices 0..m-1, values are
non-negative integer ticks, and every comparison is exact.  Bundles are
totally ordered "smaller sets first": by popcount, then by mask value.
All types here are immutable and safe to share across replicas.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

MAX_ITEMS = 32


class AuctionError(Exception):
    """Base class for every error raised by this package."""


class FeasibilityError(AuctionError):
    """An allocation overlaps or breaks a cardinality cap."""


class SizeError(AuctionError):
    """An instance is too large for the exact solvers."""


class ValidationError(AuctionError):
    """A file, profile, or configuration failed validation; `arg` names the argument at fault."""

    def __init__(self, reason: str, arg: str | None = None):
        super().__init__(f"{arg}: {reason}" if arg else reason)
        self.arg, self.reason = arg, reason


# The one rule for a seeded uniform int.  CPython's `Random.randrange(n)`
# draws this way, so the rule repeats its values and final generator state
# at a fraction of the call cost (`randint(a, b)` is `a + randbelow(rng,
# b - a + 1)`); tests/test_core.py::TestDrawIdentity pins it to the running
# interpreter.


def randbelow(rng, n: int) -> int:
    """A uniform int in [0, n), drawn as `rng.randrange(n)` draws it."""
    if n < 1:
        raise ValueError(f"empty range: no int below {n}")
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def draws_below(rng, n: int, count: int) -> list[int]:
    """`count` successive `randbelow(rng, n)` draws."""
    if n < 1:
        raise ValueError(f"empty range: no int below {n}")
    getrandbits, bits = rng.getrandbits, n.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        append(r)
    return out


def full_mask(item_count: int) -> int:
    """Bitmask of all items of an instance with `item_count` items."""
    if not 0 <= item_count <= MAX_ITEMS:
        raise ValidationError(f"item count must be in [0, {MAX_ITEMS}], got {item_count}")
    return (1 << item_count) - 1


def bundle_from_items(items: Iterable[int], item_count: int) -> int:
    mask = 0
    for j in items:
        if not 0 <= j < item_count:
            raise ValidationError(f"item index {j} out of range for {item_count} items")
        mask |= 1 << j
    return mask


def bundle_items(mask: int) -> tuple[int, ...]:
    """Item indices present in a bundle, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def bundle_key(mask: int) -> tuple[int, int]:
    """Total-order key: fewer items first, then lower mask value."""
    return (mask.bit_count(), mask)


class Declaration(NamedTuple("DeclarationFields", [("set_mask", int), ("bid", int)])):
    """A single-minded bid: `bid` ticks for any superset of `set_mask`.

    The empty declaration is ``Declaration(0, 0)`` (module constant EMPTY);
    it is the canonical form of every zero-value bid.  Any other declaration
    must name a non-empty set and bid at least one tick.  A declaration is
    a tuple: it equals, hashes and sorts like the plain ``(set_mask, bid)``.
    """

    __slots__ = ()

    def __new__(cls, set_mask: int, bid: int) -> Declaration:
        if (set_mask == 0 or bid < 1) and (set_mask or bid):
            raise ValidationError(
                f"declaration must be empty or (non-empty set, bid >= 1), "
                f"got mask={set_mask:#x} bid={bid}"
            )
        return tuple.__new__(cls, (set_mask, bid))

    @classmethod
    def _make(cls, fields) -> Declaration:  # `_replace` builds through this too
        return cls(*fields)

    @property
    def is_empty(self) -> bool:
        return self.set_mask == 0


EMPTY = Declaration(0, 0)


def single_minded(set_mask: int, bid: int) -> Declaration:
    """Build a declaration, canonicalizing zero bids and empty sets to EMPTY."""
    if bid < 0:
        raise ValidationError(f"bid must be non-negative, got {bid}")
    if set_mask == 0 or bid == 0:
        return EMPTY
    return Declaration(set_mask, bid)


class Valuation:
    """Explicit bundle values with max-over-contained-subsets semantics.

    ``atoms`` is a canonical tuple of (bundle mask, positive value) pairs,
    sorted by bundle order, with distinct bundles.  The value of an
    arbitrary bundle is the maximum atom value over atoms it contains
    (0 if none), which makes every valuation monotone and normalized.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[int, int]] = ()):
        cleaned: dict[int, int] = {}
        for mask, value in atoms:
            if value < 0:
                raise ValidationError(f"atom value must be non-negative, got {value}")
            if mask == 0 and value > 0:
                raise ValidationError("the empty bundle must have value 0")
            if value == 0:
                continue
            if mask in cleaned:
                raise ValidationError(f"duplicate atom bundle {mask:#x}")
            cleaned[mask] = value
        self.atoms: tuple[tuple[int, int], ...] = tuple(
            sorted(cleaned.items(), key=lambda a: bundle_key(a[0]))
        )

    def value_of(self, mask: int) -> int:
        best = 0
        for s, v in self.atoms:
            if s & ~mask == 0 and v > best:
                best = v
        return best

    @property
    def max_value(self) -> int:
        return max((v for _, v in self.atoms), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Valuation) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Valuation({list(self.atoms)!r})"


# A profile is one declaration per agent; indices are agent identities.
Profile = tuple[Declaration, ...]


def feasible(allocation: Sequence[int]) -> bool:
    """True iff bundles are pairwise disjoint."""
    used = 0
    for mask in allocation:
        if mask & used:
            return False
        used |= mask
    return True


def social_welfare(allocation: Sequence[int], types: Sequence[Valuation]) -> int:
    """Total true value of a feasible allocation."""
    if not feasible(allocation):
        raise FeasibilityError(f"infeasible allocation {tuple(allocation)}")
    return sum(t.value_of(mask) for mask, t in zip(allocation, types))


def declared_welfare(allocation: Sequence[int], profile: Sequence[Declaration]) -> int:
    """Total declared value: each bid counts iff its agent's bundle covers its set."""
    total = 0
    for mask, (s, bid) in zip(allocation, profile):
        if s and s & ~mask == 0:
            total += bid
    return total


class Outcome(NamedTuple("OutcomeFields", [("allocation", tuple), ("payments", tuple)])):
    """A feasible allocation plus per-agent payments in ticks."""

    __slots__ = ()

    def __new__(cls, allocation: Sequence[int], payments: Sequence[int]) -> Outcome:
        allocation, payments = tuple(allocation), tuple(payments)
        for mask, pay in zip(allocation, payments):
            if pay < 0:
                raise ValidationError("payments must be non-negative")
            if mask == 0 and pay != 0:
                raise ValidationError("losers must pay zero")
        return tuple.__new__(cls, (allocation, payments))

    @classmethod
    def _make(cls, fields) -> Outcome:  # `_replace` builds through this too
        return cls(*fields)

    def utility(self, agent: int, valuation: Valuation) -> int:
        return valuation.value_of(self.allocation[agent]) - self.payments[agent]
