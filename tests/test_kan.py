"""Pointwise extensions of nullity diagrams along a functor."""

import itertools

import pytest

from nullkan.construct import builtin_model
from nullkan.fincat import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FunctorData,
    chain_preorder,
    discrete_category,
)
from nullkan.kan import (
    KanResult,
    NullityDiagram,
    check_universal,
    fibers,
    lattice_check,
    left_kan,
    right_kan,
)
from nullkan.lemmas import _slice
from nullkan.nullity import carrier_of, transports_of
from nullkan.order import (
    FiniteSet,
    SetMap,
    all_down_sets,
    down_closure,
    enumerate_assignments,
    failed_transports,
    trivial_nullity,
)


@pytest.fixture
def two_points_over_chain():
    D = discrete_category("D", ["d0", "d1"])
    T = chain_preorder("T", ["t0", "t1"])
    K = FunctorData(
        "K", D, T, {"d0": "t0", "d1": "t1"},
        {"id:d0": "le:t0>t0", "id:d1": "le:t1>t1"},
    )
    c = FiniteSet(("a", "b"))
    values = {
        "d0": down_closure(c, [c.mask_of(["a"])]),
        "d1": down_closure(c, [c.mask_of(["b"])]),
    }
    carriers = {"t0": c, "t1": c}
    return K, NullityDiagram(D, values), carriers, c


def test_fiber_mode_singleton_fibers(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    L = left_kan(K, diag, carriers)
    assert L.extension["t0"].masks == diag.values["d0"].masks
    assert L.extension["t1"].masks == diag.values["d1"].masks
    assert L.slice_sizes == {"t0": 1, "t1": 1}
    R = right_kan(K, diag, carriers)
    assert R.extension["t0"].masks == diag.values["d0"].masks


def test_fiber_mode_union_and_conventions(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    collapse = FunctorData(
        "K2", K.source, K.target, {"d0": "t0", "d1": "t0"},
        {"id:d0": "le:t0>t0", "id:d1": "le:t0>t0"},
    )
    L = left_kan(collapse, diag, carriers)
    assert L.extension["t0"].masks == {0, 1, 2}  # union of the two values
    assert L.extension["t1"].is_trivial()  # empty fiber
    R = right_kan(collapse, diag, carriers)
    assert R.extension["t0"].is_trivial()  # intersection
    assert R.extension["t1"].is_full()  # empty fiber


def test_cross_check_agrees(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    for step in (left_kan, right_kan):
        got = lattice_check(K, diag, carriers, step(K, diag, carriers), DEFAULT_BUDGET)
        assert got == {"t0": True, "t1": True}
    # A candidate off by one family disagrees at that object only.
    L = left_kan(K, diag, carriers)
    wrong = L._replace(extension={**L.extension, "t1": trivial_nullity(c)})
    assert lattice_check(K, diag, carriers, wrong, DEFAULT_BUDGET) == {"t0": True, "t1": False}


def test_universal_property_of_fiber_result(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    L = left_kan(K, diag, carriers)
    rep = check_universal(K, diag, L, target_carriers=carriers)
    assert rep.ok
    assert rep.checked["competitors"] > 0


def test_universal_check_right_side_and_transports(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    R = right_kan(K, diag, carriers)
    rep = check_universal(K, diag, R, target_carriers=carriers)
    assert rep.ok and rep.checked["competitors"] == 25
    # Too small on the right: the counit exists, but diag's own values are
    # a competitor that does not factor through it.
    small = KanResult("right", {d: trivial_nullity(c) for d in carriers}, {})
    rep = check_universal(K, diag, small, target_carriers=carriers)
    assert {v.law for v in rep.violations} == {"kan-not-universal"}
    # Identity transports keep the 14 pairs with H(t0) inside H(t1).  The
    # fiber meet is not one of them: {a} is null at t0 but not at t1.
    ident = {m.name: SetMap(c, c, (0, 1)) for m in K.target.morphisms}
    rep = check_universal(K, diag, R, target_carriers=carriers, target_transports=ident)
    assert rep.checked["competitors"] == 14
    assert [(v.law, v.as_dict()["witness"]) for v in rep.violations] == [
        ("kan-candidate-not-functorial", {"morphism": "le:t0>t1", "null_set": "{a}"})
    ]


def test_universal_check_rejects_a_non_functorial_candidate(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    ident = {m.name: SetMap(c, c, (0, 1)) for m in K.target.morphisms}
    L = left_kan(K, diag, carriers)
    rep = check_universal(K, diag, L, target_carriers=carriers, target_transports=ident)
    assert not rep.ok and rep.checked["competitors"] == 14
    assert [(v.law, v.as_dict()["witness"]) for v in rep.violations] == [
        ("kan-candidate-not-functorial", {"morphism": "le:t0>t1", "null_set": "{a}"})
    ]
    # The largest functorial assignment below the fiber meet is the right
    # extension among functorial assignments, and passes.
    fixed = {"t0": trivial_nullity(c), "t1": diag.values["d1"]}
    R = KanResult("right", fixed, {})
    assert check_universal(K, diag, R, target_carriers=carriers, target_transports=ident).ok


def _brute_assignments(carriers, transports):
    """The product of all families per object, in order, filtered by the
    transports: the reference for `enumerate_assignments`."""
    objs = list(carriers)
    out = []
    for combo in itertools.product(*(all_down_sets(carriers[x]) for x in objs)):
        cand = dict(zip(objs, combo))
        if not any(failed_transports(cand, transports)):
            out.append(cand)
    return out


@pytest.mark.parametrize(
    "case,count", [("fixture", 14), ("f2_proper", 5), ("injections_card_0", 14)]
)
def test_enumerator_matches_brute_force(case, count, two_points_over_chain):
    if case == "fixture":
        K, diag, carriers, c = two_points_over_chain
        transports = [
            (m.name, SetMap.identity(c), m.dom, m.cod) for m in K.target.morphisms
        ]
    else:
        s = builtin_model(case)
        carriers = {V: carrier_of(s.gamma, V) for V in s.main.objects}
        transports = transports_of(s.main, s.gamma.carrier_mor)
    got = list(enumerate_assignments(carriers, transports, DEFAULT_BUDGET))
    assert got == _brute_assignments(carriers, transports)
    assert len(got) == count


def test_universal_check_reports_budget(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    L = left_kan(K, diag, carriers)
    with pytest.raises(BudgetExceeded, match="enumerate_assignments"):
        check_universal(K, diag, L, target_carriers=carriers, budget=1)


def test_universal_check_smallest_finishing_budget(two_points_over_chain):
    # Each structure tried is a step: 5 on t0, then 5 on t1 under each.
    K, diag, carriers, c = two_points_over_chain
    L = left_kan(K, diag, carriers)
    assert check_universal(K, diag, L, target_carriers=carriers, budget=30).ok
    with pytest.raises(BudgetExceeded, match="enumerate_assignments"):
        check_universal(K, diag, L, target_carriers=carriers, budget=29)


def test_slice_and_fiber_shapes(two_points_over_chain):
    K, diag, carriers, c = two_points_over_chain
    sl = _slice(K, "t1", "colim")[0]
    assert len(sl.category.objects) == 2  # d0 via t0<=t1 and d1 via id
    assert fibers(K) == {"t0": ["d0"], "t1": ["d1"]}
    S = chain_preorder("S", ["s0", "s1"])
    crush = FunctorData(
        "crush", S, K.target, {"s0": "t0", "s1": "t0"},
        {m.name: "le:t0>t0" for m in S.morphisms},
    )
    assert fibers(crush) == {"t0": ["s0", "s1"], "t1": []}

