"""Seeded random valuations and profiles for property tests and the
desk-scale experiment suites."""
from __future__ import annotations

from typing import Optional

from .core import EMPTY, Declaration, Profile, Valuation, full_mask, single_minded


def random_bundle(rng, item_count: int, max_size: int) -> int:
    size = rng.randint(1, max(1, min(max_size, item_count)))
    items = rng.sample(range(item_count), size)
    mask = 0
    for j in items:
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
    for _ in range(rng.randint(1, max_atoms)):
        atoms[random_bundle(rng, item_count, max_size)] = rng.randint(1, max_value)
    if grand_prob and rng.random() < grand_prob:
        grand = full_mask(item_count)
        ceiling = grand_max_value or 2 * max_value
        atoms[grand] = rng.randint(max_value, ceiling)
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
                Declaration(random_bundle(rng, item_count, max_size), rng.randint(1, max_value))
            )
    return tuple(decls)


def truthful_profile(rng, types: list[Valuation]) -> Profile:
    """Each agent bids true value on a uniformly chosen atom (or stays out)."""
    decls = []
    for t in types:
        choices = [0] + [mask for mask, _ in t.atoms]
        mask = choices[rng.randrange(len(choices))]
        decls.append(single_minded(mask, t.value_of(mask)))
    return tuple(decls)
