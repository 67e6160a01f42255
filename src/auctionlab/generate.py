"""Seeded random valuations and profiles for property tests and the
desk-scale experiment suites."""
from __future__ import annotations

from math import ceil, log
from typing import Optional

from .core import EMPTY, Declaration, Profile, Valuation, full_mask, randbelow, single_minded


def random_bundle(rng, item_count: int, max_size: int) -> int:
    """Mask of 1 to `max_size` distinct random items, drawn as
    `rng.sample(range(item_count), rng.randint(1, size cap))` draws them."""
    size = 1 + randbelow(rng, max(1, min(max_size, item_count)))
    mask = 0
    # `sample` keeps a pool list while it is smaller than a set of `size` picks
    setsize = 21 if size <= 5 else 21 + 4 ** ceil(log(size * 3, 4))
    if item_count <= setsize:
        pool = list(range(item_count))
        for left in range(item_count, item_count - size, -1):
            j = randbelow(rng, left)
            mask |= 1 << pool[j]
            pool[j] = pool[left - 1]
    else:
        for _ in range(size):
            j = randbelow(rng, item_count)
            while mask >> j & 1:
                j = randbelow(rng, item_count)
            mask |= 1 << j
    return mask


def random_valuation(
    rng,
    item_count: int,
    max_atoms: int = 3,
    max_value: int = 32,
    max_size: int = 2,
    grand_prob: float = 0.0,
    grand_max_value: Optional[int] = None,
) -> Valuation:
    atoms: dict[int, int] = {}
    for _ in range(1 + randbelow(rng, max_atoms)):
        atoms[random_bundle(rng, item_count, max_size)] = 1 + randbelow(rng, max_value)
    if grand_prob and rng.random() < grand_prob:
        grand = full_mask(item_count)
        ceiling = grand_max_value or 2 * max_value
        atoms[grand] = max_value + randbelow(rng, ceiling - max_value + 1)
    return Valuation(atoms.items())


def random_types(
    rng,
    n_agents: int,
    item_count: int,
    max_atoms: int = 3,
    max_value: int = 32,
    max_size: int = 2,
    grand_prob: float = 0.0,
    grand_max_value: Optional[int] = None,
) -> list[Valuation]:
    return [
        random_valuation(
            rng, item_count, max_atoms, max_value, max_size, grand_prob, grand_max_value
        )
        for _ in range(n_agents)
    ]


def random_profile(
    rng,
    n_agents: int,
    item_count: int,
    max_size: int = 3,
    max_value: int = 32,
    empty_prob: float = 0.2,
) -> Profile:
    """Random single-minded profile; some agents stay out."""
    decls = []
    for _ in range(n_agents):
        if rng.random() < empty_prob:
            decls.append(EMPTY)
        else:
            decls.append(
                Declaration(random_bundle(rng, item_count, max_size), 1 + randbelow(rng, max_value))
            )
    return tuple(decls)


def truthful_profile(rng, types: list[Valuation]) -> Profile:
    """Each agent bids true value on a uniformly chosen atom (or stays out)."""
    decls = []
    for t in types:
        choices = [0] + [mask for mask, _ in t.atoms]
        mask = choices[randbelow(rng, len(choices))]
        decls.append(single_minded(mask, t.value_of(mask)))
    return tuple(decls)
