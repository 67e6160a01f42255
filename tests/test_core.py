import pickle

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
    feasible,
    single_minded,
    social_welfare,
)
from auctionlab.dynamics import seeded_rng
from auctionlab.generate import random_valuation
from auctionlab.mechanisms import COIN_IGNORE_GRAND, COIN_NONE, Coin, _lottery_coin

from conftest import A, B, C, D


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

    def test_best_bundle_smaller_set_wins_tie(self):
        v = Valuation([(A | B, 5), (C, 5)])
        assert v.best_bundle() == (C, 5)

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
        assert Valuation().best_bundle() == (0, 0)


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

    def test_value_on(self):
        d = Declaration(A | B, 7)
        assert d.value_on(A | B | C) == 7
        assert d.value_on(A) == 0
        assert EMPTY.value_on(A) == 0


class TestFeasibility:
    def test_overlap(self):
        assert not feasible([A, A])

    def test_cap(self):
        assert feasible([A | B, C], cap=2)
        assert not feasible([A | B | C], cap=2)

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
            _lottery_coin(2),
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
        coins = [COIN_NONE, COIN_IGNORE_GRAND] + [_lottery_coin(k) for k in range(4)]
        assert COIN_NONE == Coin() and COIN_IGNORE_GRAND == Coin(ignore_grand=True)
        assert _lottery_coin(3) == Coin(lottery_agent=3) and _lottery_coin(3) is _lottery_coin(3)
        assert len({hash(c) for c in coins}) == len(coins)
        assert len(set(coins)) == len(coins)
        results = {c: k for k, c in enumerate(coins)}
        assert [results[Coin(*c)] for c in coins] == list(range(len(coins)))

    def test_outcome_fields(self):
        out = Outcome([A, 0], [2, 0])
        assert out.allocation == (A, 0) and out.payments == (2, 0)
        assert out == ((A, 0), (2, 0)) and hash(out) == hash(((A, 0), (2, 0)))
