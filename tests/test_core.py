import pickle
import random

import pytest

from auctionlab import (
    EMPTY,
    Declaration,
    FeasibilityError,
    Outcome,
    ValidationError,
    Valuation,
    bundle_from_items,
    bundle_items,
    bundle_key,
    declared_welfare,
    feasible,
    single_minded,
    social_welfare,
)
from auctionlab.core import draws_below, randbelow
from auctionlab.dynamics import seeded_rng
from auctionlab.generate import random_bundle, random_valuation
from auctionlab.mechanisms import COIN_IGNORE_GRAND, COIN_NONE, Coin

from conftest import A, B, C, D


def reference_random_bundle(rng, item_count, max_size):
    """`random_bundle` as first written: the draws the faster one must repeat."""
    size = rng.randint(1, max(1, min(max_size, item_count)))
    mask = 0
    for j in rng.sample(range(item_count), size):
        mask |= 1 << j
    return mask


class TestDrawIdentity:
    """The one uniform-int rule repeats the running interpreter's `random`
    draw for draw, with the same final generator state."""

    def test_randbelow_and_draws_below_match_randrange(self):
        # 1..70 includes every power of two up to 64 and the 2^k + 1 after it
        for seed in range(6):
            for n in range(1, 71):
                rule, ref = random.Random(seed), random.Random(seed)
                assert draws_below(rule, n, 40) == [ref.randrange(n) for _ in range(40)]
                singles = [randbelow(rule, n) for _ in range(8)]
                assert singles == [ref.randrange(n) for _ in range(8)]
                assert rule.getstate() == ref.getstate()

    def test_draws_below_matches_randrange_on_both_sides_of_one_byte(self):
        # n below 256 reads whole words at once; 256 and up draws one by one
        for seed in range(3):
            for n in (127, 128, 129, 254, 255, 256, 257, 1000):
                for count in (0, 1, 1000):
                    rule, ref = random.Random(seed), random.Random(seed)
                    assert draws_below(rule, n, count) == [ref.randrange(n) for _ in range(count)]
                    assert rule.getstate() == ref.getstate()

    def test_shifted_randbelow_matches_randint(self):
        for seed in range(6):
            rule, ref = random.Random(seed), random.Random(seed)
            for a, b in [(0, 0), (0, 1), (1, 32), (0, 63), (0, 64), (32, 64), (5, 70)]:
                got = [a + randbelow(rule, b - a + 1) for _ in range(30)]
                assert got == [ref.randint(a, b) for _ in range(30)]
            assert rule.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_empty_range_raises_like_randrange(self, n):
        with pytest.raises(ValueError):
            random.Random(0).randrange(n)
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)
        with pytest.raises(ValueError):
            draws_below(random.Random(0), n, 3)

    def test_random_bundle_matches_sample(self):
        # `sample` draws from a pool list up to n = 21 for at most 5 picks
        # and up to n = 85 (its larger set table) for 6 to 21, else from a set
        for seed in range(12):
            for n in [*range(1, 41), 64, 85, 86, 100]:
                for max_size in (1, 2, 3, 5, 6, 8, 12):
                    fast, slow = random.Random(seed), random.Random(seed)
                    got = [random_bundle(fast, n, max_size) for _ in range(4)]
                    assert got == [reference_random_bundle(slow, n, max_size) for _ in range(4)]
                    assert fast.getstate() == slow.getstate()

    def test_random_bundle_without_items_raises_like_sample(self):
        with pytest.raises(ValueError):
            reference_random_bundle(random.Random(0), 0, 2)
        with pytest.raises(ValueError):
            random_bundle(random.Random(0), 0, 2)


class TestBundles:
    def test_from_items(self):
        assert bundle_from_items([0, 3], 4) == 0b1001
        assert bundle_items(0b1001) == (0, 3)

    def test_out_of_range_item(self):
        with pytest.raises(ValidationError):
            bundle_from_items([4], 4)

    def test_order_prefers_smaller_sets(self):
        masks = [0b111, 0b1, 0b11, 0b100, 0b110]
        ordered = sorted(masks, key=bundle_key)
        assert ordered == [0b1, 0b100, 0b11, 0b110, 0b111]

    def test_order_is_total(self):
        rng = seeded_rng(3, "bundle-order")
        masks = [rng.randrange(1, 1 << 8) for _ in range(200)]
        keys = [bundle_key(m) for m in masks]
        # strict total order: equal keys only for equal masks
        for m1, k1 in zip(masks, keys):
            for m2, k2 in zip(masks, keys):
                if k1 == k2:
                    assert m1 == m2


class TestValuation:
    def test_value_is_max_over_contained_atoms(self, cycle_types):
        v = cycle_types[0]
        assert v.value_of(A | B) == 4
        assert v.value_of(A | B | D) == 6  # both atoms contained, max wins
        assert v.value_of(0) == 0
        assert v.value_of(C) == 0

    def test_monotone(self):
        rng = seeded_rng(17, "valuation-monotone")
        for _ in range(300):
            v = random_valuation(rng, 6, max_atoms=4, max_value=20, max_size=4)
            small = rng.randrange(1 << 6)
            extra = rng.randrange(1 << 6)
            assert v.value_of(small) <= v.value_of(small | extra)

    def test_rejects_positive_empty_bundle(self):
        with pytest.raises(ValidationError):
            Valuation([(0, 3)])

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValidationError):
            Valuation([(A, 3), (A, 4)])

    def test_drops_zero_atoms(self):
        assert Valuation([(A, 0)]).atoms == ()

    def test_zero_valuation(self):
        assert Valuation().max_value == 0


class TestDeclaration:
    def test_zero_bid_canonicalizes_to_empty(self):
        assert single_minded(A, 0) is EMPTY
        assert single_minded(0, 7) is EMPTY

    def test_negative_bid_rejected(self):
        with pytest.raises(ValidationError):
            single_minded(A, -1)

    def test_invalid_direct_construction(self):
        with pytest.raises(ValidationError):
            Declaration(0, 5)
        with pytest.raises(ValidationError):
            Declaration(A, 0)

    def test_declared_welfare_counts_covered_sets(self):
        d = Declaration(A | B, 7)
        assert declared_welfare((A | B | C,), (d,)) == 7
        assert declared_welfare((A,), (d,)) == 0
        assert declared_welfare((A,), (EMPTY,)) == 0


class TestFeasibility:
    def test_overlap(self):
        assert not feasible([A, A])

    def test_social_welfare(self, cycle_types):
        assert social_welfare([D, B | C, 0, 0], cycle_types) == 11
        assert social_welfare([0, 0, 0, 0], cycle_types) == 0
        assert social_welfare([A | B, 0, C, D], cycle_types) == 13

    def test_social_welfare_rejects_infeasible(self, cycle_types):
        with pytest.raises(FeasibilityError):
            social_welfare([A, A, 0, 0], cycle_types)

    def test_welfare_additive_under_permutation(self):
        rng = seeded_rng(23, "welfare-perm")
        for _ in range(100):
            types = [random_valuation(rng, 5, max_size=2) for _ in range(4)]
            alloc = [A, B, C | D, 0]
            if not feasible(alloc):
                continue
            base = social_welfare(alloc, types)
            perm = [2, 0, 3, 1]
            assert social_welfare([alloc[p] for p in perm], [types[p] for p in perm]) == base


class TestOutcome:
    def test_loser_must_pay_zero(self):
        with pytest.raises(ValidationError):
            Outcome((0, A), (3, 0))

    def test_utility(self, cycle_types):
        out = Outcome((D, B | C, 0, 0), (5, 4, 0, 0))
        assert out.utility(0, cycle_types[0]) == 1
        assert out.utility(1, cycle_types[1]) == 1
        assert out.utility(2, cycle_types[2]) == 0


class TestTupleValues:
    """Declarations, coins and outcomes are named tuples: they compare,
    hash and sort like plain tuples of their fields, and keep their type
    and validation."""

    def test_declaration_is_its_field_tuple(self):
        d = Declaration(A | B, 7)
        assert d == (A | B, 7) and (A | B, 7) == d
        assert hash(d) == hash((A | B, 7))
        assert {(A | B, 7): "x"}[d] == "x"
        assert d.set_mask == A | B and d.bid == 7
        assert tuple(d) == (A | B, 7)
        assert EMPTY == (0, 0) and EMPTY.is_empty and not d.is_empty

    def test_declarations_sort_like_tuples(self):
        decls = [Declaration(B, 3), EMPTY, Declaration(A, 9), Declaration(B, 1), Declaration(A, 2)]
        assert sorted(decls) == sorted(tuple(d) for d in decls)
        assert sorted(decls) == [EMPTY, Declaration(A, 2), Declaration(A, 9),
                                 Declaration(B, 1), Declaration(B, 3)]

    def test_values_are_immutable(self):
        with pytest.raises(AttributeError):
            Declaration(A, 1).bid = 2
        with pytest.raises(AttributeError):
            Declaration(A, 1).extra = 2
        with pytest.raises(AttributeError):
            COIN_NONE.ignore_grand = True

    def test_pickle_round_trip_keeps_type(self):
        values = [
            Declaration(A | C, 5),
            EMPTY,
            COIN_NONE,
            COIN_IGNORE_GRAND,
            Coin(lottery_agent=2),
            Outcome((A, 0, B), (3, 0, 0)),
        ]
        for value in values:
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)
            assert hash(copy) == hash(value)

    def test_bad_values_still_raise(self):
        with pytest.raises(ValidationError):
            Declaration(0, 3)
        with pytest.raises(ValidationError):
            Declaration(A, -1)
        with pytest.raises(ValidationError):
            Outcome((A, 0), (-1, 0))
        with pytest.raises(ValidationError):
            Outcome((A, 0), (1, 2))
        with pytest.raises(ValidationError):
            Declaration(A, 4)._replace(bid=0)
        with pytest.raises(ValidationError):
            Declaration._make((0, 3))
        with pytest.raises(ValidationError):
            Outcome((A, 0), (1, 0))._replace(allocation=(0, A))

    def test_zero_bids_are_the_empty_constant(self):
        assert single_minded(A | B, 0) is EMPTY
        assert single_minded(0, 0) is EMPTY

    def test_coins_keep_equality_and_distinct_hashes(self):
        coins = [COIN_NONE, COIN_IGNORE_GRAND] + [Coin(lottery_agent=k) for k in range(4)]
        assert COIN_NONE == Coin() and COIN_IGNORE_GRAND == Coin(ignore_grand=True)
        assert len({hash(c) for c in coins}) == len(coins)
        assert len(set(coins)) == len(coins)
        results = {c: k for k, c in enumerate(coins)}
        assert [results[Coin(*c)] for c in coins] == list(range(len(coins)))

    def test_outcome_fields(self):
        out = Outcome([A, 0], [2, 0])
        assert out.allocation == (A, 0) and out.payments == (2, 0)
        assert out == ((A, 0), (2, 0)) and hash(out) == hash(((A, 0), (2, 0)))
