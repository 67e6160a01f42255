"""Independent output checkers for the benchmark.

Nothing here imports auctionlab: instances are read from their JSON files,
valuations are re-implemented (max over contained atoms), and the optimum
is found by plain enumeration.  Every checker returns a list of problem
strings; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import io
from fractions import Fraction

# A type is a tuple of (bundle mask, value) atoms.


def value_of(atoms, mask: int) -> int:
    """True value of a bundle: the best atom it contains, 0 if none."""
    return max((v for s, v in atoms if s & ~mask == 0), default=0)


def parse_instance(data: dict):
    """(item count, cap or None, list of types) from an instance JSON object."""
    m = data["m"]
    labels = data.get("items") or [str(j) for j in range(m)]
    index = {label: j for j, label in enumerate(labels)}
    types = []
    for agent in data["agents"]:
        atoms = []
        for atom in agent["atoms"]:
            mask = 0
            for item in atom["items"]:
                mask |= 1 << (item if isinstance(item, int) else index[item])
            atoms.append((mask, atom["value"]))
        types.append(tuple(atoms))
    return m, data.get("s"), types


def feasible(masks, cap=None) -> bool:
    used = 0
    for mask in masks:
        if mask & used or (cap is not None and mask.bit_count() > cap):
            return False
        used |= mask
    return True


def brute_force_optimum(types, cap=None, exclude=()) -> int:
    """Best total value over every way of giving each agent one of its atoms
    (or nothing), bundles pairwise disjoint and within `cap`.  Agents in
    `exclude` get nothing.  Plain depth-first enumeration, no memo."""
    options = [
        [] if i in exclude else [(s, v) for s, v in atoms if cap is None or s.bit_count() <= cap]
        for i, atoms in enumerate(types)
    ]

    def best(i: int, used: int) -> int:
        if i == len(options):
            return 0
        top = best(i + 1, used)
        for s, v in options[i]:
            if not s & used:
                top = max(top, v + best(i + 1, used | s))
        return top

    return best(0, 0)


def check_optimum_against(optimum: int, types, allocation, cap=None) -> list[str]:
    """An optimum must not fall below the true welfare of any feasible
    allocation."""
    if not feasible(allocation, cap):
        return []
    welfare = sum(value_of(t, a) for t, a in zip(types, allocation))
    if optimum < welfare:
        return [f"optimum {optimum} is below feasible allocation {tuple(allocation)} "
                f"worth {welfare}"]
    return []


# ---------------------------------------------------------------------------
# Trace CSVs
# ---------------------------------------------------------------------------


def parse_trace(text: str, n: int) -> list[dict]:
    """Rows of a trace CSV as dicts of int lists (coin kept as text)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    expected = (
        ["round", "updater"]
        + [f"set_{i + 1}" for i in range(n)]
        + [f"bid_{i + 1}" for i in range(n)]
        + ["coin"]
        + [f"won_{i + 1}" for i in range(n)]
        + [f"pay_{i + 1}" for i in range(n)]
        + ["declared_sw", "true_sw"]
    )
    if header != expected:
        raise ValueError(f"unexpected trace header {header}")
    rows = []
    for cells in reader:
        ints = lambda a, b: [int(c) for c in cells[a:b]]
        rows.append(
            {
                "round": int(cells[0]),
                "updater": cells[1],
                "sets": ints(2, 2 + n),
                "bids": ints(2 + n, 2 + 2 * n),
                "coin": cells[2 + 2 * n],
                "won": ints(3 + 2 * n, 3 + 3 * n),
                "pay": ints(3 + 3 * n, 3 + 4 * n),
                "declared_sw": int(cells[3 + 4 * n]),
                "true_sw": int(cells[4 + 4 * n]),
            }
        )
    return rows


def check_row(row: dict, types, cap=None) -> list[str]:
    """Feasibility, payments and both welfare columns of one trace row."""
    where = f"round {row['round']}"
    problems = []
    won, pay = row["won"], row["pay"]
    if not feasible(won, cap):
        problems.append(f"{where}: allocation {won} overlaps or exceeds cap {cap}")
    for i, (mask, price) in enumerate(zip(won, pay)):
        if not mask and price:
            problems.append(f"{where}: loser {i + 1} pays {price}")
        if mask and price > row["bids"][i]:
            problems.append(f"{where}: winner {i + 1} pays {price} above bid {row['bids'][i]}")
    true_sw = sum(value_of(t, mask) for t, mask in zip(types, won))
    if true_sw != row["true_sw"]:
        problems.append(f"{where}: true_sw {row['true_sw']}, recomputed {true_sw}")
    declared = sum(
        bid for s, bid, mask in zip(row["sets"], row["bids"], won) if s and s & ~mask == 0
    )
    if declared != row["declared_sw"]:
        problems.append(f"{where}: declared_sw {row['declared_sw']}, recomputed {declared}")
    return problems


def check_replica_summary(summary: dict, rows: list[dict], optimum: int) -> list[str]:
    """The replica's welfare block against its CSV rows and the optimum."""
    welfare = summary["welfare"]
    average = Fraction(sum(r["true_sw"] for r in rows), len(rows)) if rows else Fraction(0)
    ratio = Fraction(1) if optimum == 0 else average / optimum
    problems = []
    if Fraction(welfare["average"]) != average:
        problems.append(f"replica {summary['replica']}: average {welfare['average']}, CSV gives {average}")
    if welfare["optimum"] != optimum:
        problems.append(f"replica {summary['replica']}: optimum {welfare['optimum']}, brute force {optimum}")
    if Fraction(welfare["ratio"]) != ratio:
        problems.append(f"replica {summary['replica']}: ratio {welfare['ratio']}, expected {ratio}")
    return problems


# ---------------------------------------------------------------------------
# Declarations and separation (profiles as (set_mask, bid) pairs)
# ---------------------------------------------------------------------------


def separated(profile, types) -> bool:
    """Each non-empty bid covers the intersecting bids that sit strictly
    below the bidder's true value for its set."""
    for i, (s, bid) in enumerate(profile):
        if not s:
            continue
        true_value = value_of(types[i], s)
        pressure = sum(
            b for j, (o, b) in enumerate(profile) if j != i and o & s and b < true_value
        )
        if pressure > bid:
            return False
    return True


def separated_by_scale(profile, types, grand: int) -> bool:
    small = [(s, b) if s != grand else (0, 0) for s, b in profile]
    big = [(s, b) if s == grand else (0, 0) for s, b in profile]
    return separated(small, types) and separated(big, types)


def truthful(decl, atoms) -> bool:
    """An undominated declaration bids the true value of its set."""
    s, bid = decl
    return (s, bid) == (0, 0) or (s != 0 and bid == value_of(atoms, s))
