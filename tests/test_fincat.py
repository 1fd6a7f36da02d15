"""Core finite-category layer: tables, functors, adjoint fragments, (co)limits."""

import functools
import itertools
import random

import pytest

from nullkan.comma import arrow_category, bang_functor
from nullkan.fincat import (
    BudgetExceeded,
    EngineError,
    FinCategory,
    FunctorData,
    NatTransData,
    Violation,
    build_preorder,
    chain_preorder,
    check_functor,
    check_half_right_adjoint,
    check_natural,
    colimit,
    compose_functors,
    discrete_category,
    enumerate_functors,
    find_iso,
    find_nat_trans,
    find_section,
    functor_equal,
    identity_functor,
    limit,
    opposite,
    power_set_preorder,
    search_half_right_adjoint,
    validate_category,
)
from nullkan.nullity import materialize_nullity_category, nullity_fiber_preorder
from nullkan.order import FiniteSet


def thin(name, src, tgt, obj_map):
    mor_map = {}
    for m in src.morphisms:
        mor_map[m.name] = tgt.hom(obj_map[m.dom], obj_map[m.cod])[0]
    return FunctorData(name, src, tgt, obj_map, mor_map)


def composable_triples(cat):
    """Composable (h, g, f) counted from hom-set sizes: the sum of H^3."""
    objs = cat.objects
    hom = {(a, b): len(cat.hom(a, b)) for a in objs for b in objs}
    return sum(
        hom[a, b] * hom[b, c] * hom[c, d]
        for a, b, c, d in itertools.product(objs, repeat=4)
    )


def cyclic_group(n):
    """Z/n as a one-object category: r_i after r_j is r_(i+j mod n)."""
    rs = [f"r{i}" for i in range(n)]
    comp = {(rs[i], rs[j]): rs[(i + j) % n] for i in range(n) for j in range(n)}
    return FinCategory(f"Z{n}", ("*",), [(r, "*", "*") for r in rs], {"*": "r0"}, comp)


@pytest.fixture
def c2():
    return chain_preorder("Y", ["y0", "y1"])


@pytest.fixture
def c3():
    return chain_preorder("X", ["x0", "x1", "x2"])


def test_chain_sizes(c3):
    # n-chain has n(n+1)/2 comparabilities
    assert len(c3.objects) == 3
    assert len(c3.morphisms) == 6
    assert validate_category(c3).ok


@pytest.mark.parametrize("n,mors", [(0, 1), (1, 3), (2, 9), (3, 27)])
def test_power_set_preorder_sizes(n, mors):
    # pairs s <= t in the boolean lattice: 3^n
    p = power_set_preorder(f"P{n}", [f"e{i}" for i in range(n)])
    assert len(p.objects) == 2**n
    assert len(p.morphisms) == mors
    rep = validate_category(p)
    assert rep.ok
    assert rep.checked["associativity"] == composable_triples(p)


def test_power_set_labels():
    p = power_set_preorder("P2", ["a", "b"])
    assert p.objects == ("{}", "{a}", "{b}", "{a,b}")


def test_build_preorder_rejects_nontransitive():
    with pytest.raises(EngineError, match="not transitive"):
        build_preorder(
            "bad",
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )


def test_discrete_category():
    d = discrete_category("D", ["p", "q"])
    assert len(d.morphisms) == 2
    assert validate_category(d).ok
    assert d.hom("p", "q") == ()


def test_compose_and_hom(c3):
    assert c3.compose("le:x1>x2", "le:x0>x1") == "le:x0>x2"
    assert c3.hom("x0", "x2") == ("le:x0>x2",)
    assert c3.endos("x0") == ("le:x0>x0",)
    with pytest.raises(EngineError):
        c3.compose("le:x0>x1", "le:x1>x2")  # wrong order


def test_validate_catches_bad_composition(c3):
    broken = FinCategory(
        "broken",
        c3.objects,
        c3.morphisms,
        c3.identity,
        {**c3.composition, ("le:x1>x2", "le:x0>x1"): "le:x0>x1"},
    )
    rep = validate_category(broken)
    assert not rep.ok
    assert any(v.law in ("composition-endpoints", "associativity") for v in rep.violations)


def z3_bad():
    """Z3 with r1 after r1 redirected from r2 to r1: one object, so endpoints
    hold, and the identity row and column are untouched, so the units hold."""
    z3 = cyclic_group(3)
    comp = {**z3.composition, ("r1", "r1"): "r1"}
    return FinCategory("Z3-bad", z3.objects, z3.morphisms, z3.identity, comp)


def test_validate_catches_associativity_only():
    assert validate_category(cyclic_group(3)).ok
    broken = z3_bad()
    rep = validate_category(broken)
    assert not rep.ok
    assert {v.law for v in rep.violations} == {"associativity"}
    witnesses = [(w["h"], w["g"], w["f"]) for w in (dict(v.witness) for v in rep.violations)]
    for h, g, f in witnesses:
        assert broken.compose(h, broken.compose(g, f)) != broken.compose(
            broken.compose(h, g), f
        )
    # r1(r1 r2) = r1 but (r1 r1) r2 = r0.
    assert ("r1", "r1", "r2") in witnesses


def partial_functor(cat):
    return FunctorData("partial", cat, cyclic_group(3), {"*": "*"}, {"r0": "r0"})


@pytest.mark.parametrize(
    "certificate",
    [
        # Preserves every entry but is not faithful.
        bang_functor,
        # Faithful and preserves everything, but its target is the category
        # under test, which carries a certificate.
        identity_functor,
        # Has no image for r1 and r2.
        partial_functor,
    ],
    ids=["unfaithful", "circular", "partial"],
)
def test_bad_certificate_is_not_trusted(certificate):
    plain = validate_category(z3_bad()).as_dict()
    broken = z3_bad()
    broken.faithful = (certificate(broken),)
    assert validate_category(broken).as_dict() == plain
    assert {v["law"] for v in plain["violations"]} == {"associativity"}


def test_certificate_on_mutated_materialized_category():
    # Redirecting an entry to a parallel morphism keeps every endpoint
    # right, and deleting one leaves the others preserved.  Either way the
    # re-attached forgetful functor proves nothing, so the report must be
    # the one without a certificate.
    cat = materialize_nullity_category("m2", [FiniteSet(("a", "b"))]).category
    (forget,) = cat.faithful
    assert validate_category(cat).ok
    rng = random.Random(0)
    keys = [k for k, h in cat.composition.items() if len(cat.hom(cat.dom(h), cat.cod(h))) > 1]
    tables = []
    for key in rng.sample(keys, 20):
        h = cat.composition[key]
        others = [p for p in cat.hom(cat.dom(h), cat.cod(h)) if p != h]
        tables.append({**cat.composition, key: rng.choice(others)})
    for key in rng.sample(keys, 5):
        tables.append({k: h for k, h in cat.composition.items() if k != key})
    for comp in tables:
        broken = FinCategory("m2-bad", cat.objects, cat.morphisms, cat.identity, comp)
        plain = validate_category(broken).as_dict()
        broken.faithful = (
            FunctorData(forget.name, broken, forget.target, forget.obj_map, forget.mor_map),
        )
        assert validate_category(broken).as_dict() == plain
        assert not plain["ok"]


def test_associativity_count_matches_hom_sizes():
    divisors = build_preorder(
        "div6",
        tuple("123456"),
        [(x, y) for x in "123456" for y in "123456" if int(y) % int(x) == 0],
    )
    pool = [
        chain_preorder("c4", ("a", "b", "c", "d")),
        divisors,
        discrete_category("d3", ("x", "y", "z")),
        arrow_category(chain_preorder("c3", ("a", "b", "c"))).category,
        cyclic_group(5),
        materialize_nullity_category("m2", [FiniteSet(("a", "b"))]).category,
    ]
    for cat in pool:
        rep = validate_category(cat)
        assert rep.ok, cat.name
        assert rep.checked["associativity"] == composable_triples(cat), cat.name


def test_violations_are_frozen_values():
    v, w = Violation("law", (("object", "x"),)), Violation("law", (("object", "x"),))
    assert v is not w and v == w and not v != w and hash(v) == hash(w)
    assert {v: 1}[w] == 1 and w in [v]
    assert v != Violation("law", (("object", "y"),)) and v != Violation("other", v.witness)
    assert v != ("law", (("object", "x"),)) and v != FiniteSet(("law",))
    with pytest.raises(AttributeError):
        v.law = "other"
    assert v.as_dict() == {"law": "law", "witness": {"object": "x"}}


def test_duplicate_morphism_name_rejected():
    with pytest.raises(EngineError, match="duplicate morphism"):
        FinCategory(
            "dup",
            ("x",),
            [("f", "x", "x"), ("f", "x", "x")],
            {"x": "f"},
            {("f", "f"): "f"},
        )


def test_functor_checks(c2, c3):
    f = thin("incl", c2, c3, {"y0": "x0", "y1": "x2"})
    assert check_functor(f).ok
    broken = FunctorData("broken", c2, c3, f.obj_map, {**f.mor_map, "le:y0>y1": "le:x0>x1"})
    assert not check_functor(broken).ok


def test_compose_functors_and_equality(c2, c3):
    f = thin("incl", c2, c3, {"y0": "x0", "y1": "x2"})
    g = thin("collapse", c3, c2, {"x0": "y0", "x1": "y0", "x2": "y1"})
    gf = compose_functors(g, f)
    assert functor_equal(gf, identity_functor(c2))
    assert not functor_equal(gf, thin("const", c2, c2, {"y0": "y0", "y1": "y0"}))


def test_enumerate_functors_counts(c2):
    # monotone self-maps of a 2-chain
    assert len(list(enumerate_functors(c2, c2))) == 3


def test_nat_trans_between_constants(c2, c3):
    lo = thin("lo", c2, c3, {"y0": "x0", "y1": "x0"})
    hi = thin("hi", c2, c3, {"y0": "x2", "y1": "x2"})
    up = find_nat_trans(lo, hi)
    assert up is not None
    assert check_natural(up).ok
    assert find_nat_trans(hi, lo) is None
    bad = NatTransData("bad", lo, hi, {"y0": "le:x0>x2", "y1": "le:x0>x0"})
    assert not check_natural(bad).ok


def test_find_nat_trans_budget(c3):
    p = identity_functor(c3)
    with pytest.raises(BudgetExceeded):
        find_nat_trans(p, p, budget=1)


def test_half_right_adjoints(c2, c3):
    surj = thin("surj", c3, c2, {"x0": "y0", "x1": "y0", "x2": "y1"})
    for kind in ("post", "pre"):
        found = search_half_right_adjoint(surj, kind)
        assert found is not None
        cand, nt = found
        assert check_half_right_adjoint(surj, cand, kind) is not None
    bot = thin("bot", c2, c2, {"y0": "y0", "y1": "y0"})
    top = thin("top", c2, c2, {"y0": "y1", "y1": "y1"})
    assert search_half_right_adjoint(bot, "post") is None
    assert search_half_right_adjoint(bot, "pre") is not None
    assert search_half_right_adjoint(top, "pre") is None
    assert search_half_right_adjoint(top, "post") is not None


def test_retraction_and_section(c2, c3):
    surj = thin("surj", c3, c2, {"x0": "y0", "x1": "y0", "x2": "y1"})
    sec = find_section(surj)
    assert sec is not None
    assert functor_equal(compose_functors(surj, sec), identity_functor(c2))
    assert find_section(thin("bot", c2, c2, {"y0": "y0", "y1": "y0"})) is None


def idempotent_monoid():
    """{1, e} with e after e = e, as a one-object category."""
    comp = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    mors = [("1", "*", "*"), ("e", "*", "*")]
    return FinCategory("E", ("*",), mors, {"*": "1"}, comp)


def full_transformation_monoid():
    """All four maps of a 2-point set under composition, as a one-object category."""
    maps = {"id": (0, 1), "sw": (1, 0), "c0": (0, 0), "c1": (1, 1)}
    name = {v: k for k, v in maps.items()}
    comp = {
        (g, f): name[tuple(maps[g][i] for i in maps[f])] for g in maps for f in maps
    }
    return FinCategory("T2", ("*",), [(m, "*", "*") for m in maps], {"*": "id"}, comp)


SMALL = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "E": idempotent_monoid,
    "C2": lambda: chain_preorder("C2", ["y0", "y1"]),
    "C3": lambda: chain_preorder("C3", ["x0", "x1", "x2"]),
    "T2": full_transformation_monoid,
}

# (X, Y, functors X -> Y, smallest budget at which enumerate_functors
# completes); the budgets were pinned from the earlier search that rescanned
# every composable pair at every step.
# C3 -> C3 is left out: its brute force would try 27 * 6^6 maps.
ENUMERATIONS = [
    ("Z2", "Z2", 2, 3), ("Z2", "Z3", 1, 4), ("Z2", "E", 1, 3), ("Z2", "C2", 2, 4),
    ("Z2", "C3", 3, 6), ("Z3", "Z2", 1, 7), ("Z3", "Z3", 3, 13), ("Z3", "E", 1, 7),
    ("Z3", "C2", 2, 6), ("Z3", "C3", 3, 9), ("E", "Z2", 1, 3), ("E", "Z3", 1, 4),
    ("E", "E", 2, 3), ("E", "C2", 2, 4), ("E", "C3", 3, 6), ("C2", "Z2", 2, 3),
    ("C2", "Z3", 3, 4), ("C2", "E", 2, 3), ("C2", "C2", 3, 7), ("C2", "C3", 6, 15),
    ("C3", "Z2", 4, 15), ("C3", "Z3", 9, 40), ("C3", "E", 4, 15), ("C3", "C2", 4, 23),
    ("T2", "T2", 5, 33), ("T2", "Z2", 1, 9), ("T2", "Z3", 1, 10), ("T2", "E", 2, 9),
    ("T2", "C2", 2, 8), ("T2", "C3", 3, 12), ("Z2", "T2", 2, 5), ("Z3", "T2", 1, 21),
    ("E", "T2", 3, 5), ("C2", "T2", 4, 5), ("C3", "T2", 16, 85),
]


def brute_functors(X, Y):
    """Every object and morphism map X -> Y that check_functor accepts, in
    lexicographic order of the images."""
    names = [m.name for m in X.morphisms]
    out = []
    for objs in itertools.product(Y.objects, repeat=len(X.objects)):
        obj_map = dict(zip(X.objects, objs))
        for mors in itertools.product([m.name for m in Y.morphisms], repeat=len(names)):
            F = FunctorData("brute", X, Y, obj_map, dict(zip(names, mors)))
            if check_functor(F).ok:
                out.append(F)
    return out


def tables(functors):
    return [(F.obj_map, F.mor_map) for F in functors]


@pytest.mark.parametrize("x,y,count,steps", ENUMERATIONS)
def test_enumerate_functors_matches_brute_force(x, y, count, steps):
    X, Y = SMALL[x](), SMALL[y]()
    got = tables(enumerate_functors(X, Y))
    assert got == tables(brute_functors(X, Y))
    assert len(got) == count
    assert tables(enumerate_functors(X, Y, budget=steps)) == got
    with pytest.raises(BudgetExceeded):
        list(enumerate_functors(X, Y, budget=steps - 1))


@pytest.mark.parametrize("x,y", [(x, y) for x, y, _, _ in ENUMERATIONS])
def test_find_section_matches_filter(x, y):
    X, Y = SMALL[x](), SMALL[y]()
    backs = brute_functors(Y, X)
    idY = identity_functor(Y)
    for F in brute_functors(X, Y):
        want = [S for S in backs if functor_equal(compose_functors(F, S), idY)][:1]
        got = find_section(F)
        assert tables([got] if got is not None else []) == tables(want)


# The SMALL categories plus the 2-antichain, the down-set lattices of 1- and
# 2-element carriers (where the Kan cross-check takes its joins and meets)
# and the empty category.
SEARCH_CATS = {
    **SMALL,
    "A2": lambda: build_preorder("A2", ["w0", "w1"], [("w0", "w0"), ("w1", "w1")]),
    "L1": lambda: nullity_fiber_preorder(FiniteSet(("a",)))[0],
    "L2": lambda: nullity_fiber_preorder(FiniteSet(("a", "b")))[0],
    "D0": lambda: discrete_category("D0", ()),
}


@functools.cache
def functors(x, y):
    """The brute-force list of functors x -> y, built once per pair."""
    return brute_functors(SEARCH_CATS[x](), SEARCH_CATS[y]())


def run_at_smallest_budget(search, budget):
    """search(budget), after checking that one step less runs out.  A search
    that takes no step completes at every budget, so 0 is its smallest."""
    if budget > 0:
        with pytest.raises(BudgetExceeded):
            search(budget - 1)
    return search(budget)


# (X, Y, i, j, components of the first natural transformation from the i-th
# to the j-th functor X -> Y in X's object order, or None, smallest budget
# at which find_nat_trans completes); pinned from the search written out
# by hand before the shared backtracking core.
NAT_TRANS = [
    ("Z2", "T2", 0, 0, ("id",), 1), ("Z2", "T2", 0, 1, None, 4),
    ("Z2", "T2", 1, 0, ("c0",), 3), ("Z2", "T2", 1, 1, ("id",), 1),
    ("E", "T2", 0, 0, ("id",), 1), ("E", "T2", 0, 1, ("c0",), 3),
    ("E", "T2", 0, 2, ("c1",), 4), ("E", "T2", 1, 0, ("c0",), 3),
    ("E", "T2", 1, 1, ("id",), 1), ("E", "T2", 1, 2, ("sw",), 2),
    ("E", "T2", 2, 0, ("c0",), 3), ("E", "T2", 2, 1, ("sw",), 2),
    ("E", "T2", 2, 2, ("id",), 1), ("C3", "Z2", 0, 0, ("r0", "r0", "r0"), 3),
    ("C3", "Z2", 0, 1, ("r0", "r0", "r1"), 4), ("C3", "Z2", 0, 2, ("r0", "r1", "r0"), 4),
    ("C3", "Z2", 0, 3, ("r0", "r1", "r1"), 5), ("C3", "Z2", 1, 0, ("r0", "r0", "r1"), 4),
    ("C3", "Z2", 1, 1, ("r0", "r0", "r0"), 3), ("C3", "Z2", 1, 2, ("r0", "r1", "r1"), 5),
    ("C3", "Z2", 1, 3, ("r0", "r1", "r0"), 4), ("C3", "Z2", 2, 0, ("r0", "r1", "r0"), 4),
    ("C3", "Z2", 2, 1, ("r0", "r1", "r1"), 5), ("C3", "Z2", 2, 2, ("r0", "r0", "r0"), 3),
    ("C3", "Z2", 2, 3, ("r0", "r0", "r1"), 4), ("C3", "Z2", 3, 0, ("r0", "r1", "r1"), 5),
    ("C3", "Z2", 3, 1, ("r0", "r1", "r0"), 4), ("C3", "Z2", 3, 2, ("r0", "r0", "r1"), 4),
    ("C3", "Z2", 3, 3, ("r0", "r0", "r0"), 3),
    ("A2", "L1", 0, 0, ("le:{}>{}", "le:{}>{}"), 2),
    ("A2", "L1", 0, 1, ("le:{}>{}", "le:{}>{}|{a}"), 2),
    ("A2", "L1", 0, 2, ("le:{}>{}|{a}", "le:{}>{}"), 2),
    ("A2", "L1", 0, 3, ("le:{}>{}|{a}", "le:{}>{}|{a}"), 2), ("A2", "L1", 1, 0, None, 1),
    ("A2", "L1", 1, 1, ("le:{}>{}", "le:{}|{a}>{}|{a}"), 2), ("A2", "L1", 1, 2, None, 1),
    ("A2", "L1", 1, 3, ("le:{}>{}|{a}", "le:{}|{a}>{}|{a}"), 2),
    ("A2", "L1", 2, 0, None, 0), ("A2", "L1", 2, 1, None, 0),
    ("A2", "L1", 2, 2, ("le:{}|{a}>{}|{a}", "le:{}>{}"), 2),
    ("A2", "L1", 2, 3, ("le:{}|{a}>{}|{a}", "le:{}>{}|{a}"), 2),
    ("A2", "L1", 3, 0, None, 0), ("A2", "L1", 3, 1, None, 0), ("A2", "L1", 3, 2, None, 1),
    ("A2", "L1", 3, 3, ("le:{}|{a}>{}|{a}", "le:{}|{a}>{}|{a}"), 2),
]


@pytest.mark.parametrize("x,y,i,j,components,budget", NAT_TRANS)
def test_find_nat_trans_pinned(x, y, i, j, components, budget):
    F, G = functors(x, y)[i], functors(x, y)[j]
    nt = run_at_smallest_budget(lambda b: find_nat_trans(F, G, b), budget)
    if nt is None:
        assert components is None
    else:
        assert tuple(nt.components[o] for o in F.source.objects) == components
        assert check_natural(nt).ok


# (operation, J, C, i, tip, legs in J's object order, cones_seen, reason,
# smallest budget at which it completes) for the i-th functor J -> C;
# pinned from the separate cone and cocone searches before limits were
# computed as colimits in the opposite category.
UNIVERSALS = [
    ("colimit", "D0", "L2", 0, "{}", (), 5, None, 5),
    ("colimit", "A2", "L2", 0, "{}", ("le:{}>{}", "le:{}>{}"), 5, None, 10),
    ("colimit", "A2", "L2", 1, "{}|{a}", ("le:{}>{}|{a}", "le:{}|{a}>{}|{a}"), 3, None, 8),
    ("colimit", "A2", "L2", 2, "{}|{b}", ("le:{}>{}|{b}", "le:{}|{b}>{}|{b}"), 3, None, 8),
    ("colimit", "A2", "L2", 3, "{}|{a}|{b}",
     ("le:{}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 2, None, 7),
    ("colimit", "A2", "L2", 4, "{}|{a}|{b}|{a,b}",
     ("le:{}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"), 1, None, 6),
    ("colimit", "A2", "L2", 5, "{}|{a}", ("le:{}|{a}>{}|{a}", "le:{}>{}|{a}"), 3, None, 6),
    ("colimit", "A2", "L2", 6, "{}|{a}",
     ("le:{}|{a}>{}|{a}", "le:{}|{a}>{}|{a}"), 3, None, 6),
    ("colimit", "A2", "L2", 7, "{}|{a}|{b}",
     ("le:{}|{a}>{}|{a}|{b}", "le:{}|{b}>{}|{a}|{b}"), 2, None, 5),
    ("colimit", "A2", "L2", 8, "{}|{a}|{b}",
     ("le:{}|{a}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 2, None, 5),
    ("colimit", "A2", "L2", 9, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"), 1, None, 4),
    ("colimit", "A2", "L2", 10, "{}|{b}", ("le:{}|{b}>{}|{b}", "le:{}>{}|{b}"), 3, None, 6),
    ("colimit", "A2", "L2", 11, "{}|{a}|{b}",
     ("le:{}|{b}>{}|{a}|{b}", "le:{}|{a}>{}|{a}|{b}"), 2, None, 5),
    ("colimit", "A2", "L2", 12, "{}|{b}",
     ("le:{}|{b}>{}|{b}", "le:{}|{b}>{}|{b}"), 3, None, 6),
    ("colimit", "A2", "L2", 13, "{}|{a}|{b}",
     ("le:{}|{b}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 2, None, 5),
    ("colimit", "A2", "L2", 14, "{}|{a}|{b}|{a,b}",
     ("le:{}|{b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"), 1, None, 4),
    ("colimit", "A2", "L2", 15, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}>{}|{a}|{b}"), 2, None, 4),
    ("colimit", "A2", "L2", 16, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}|{a}>{}|{a}|{b}"), 2, None, 4),
    ("colimit", "A2", "L2", 17, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}|{b}>{}|{a}|{b}"), 2, None, 4),
    ("colimit", "A2", "L2", 18, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 2, None, 4),
    ("colimit", "A2", "L2", 19, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"),
     1, None, 3),
    ("colimit", "A2", "L2", 20, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}>{}|{a}|{b}|{a,b}"), 1, None, 2),
    ("colimit", "A2", "L2", 21, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}|{a}>{}|{a}|{b}|{a,b}"), 1, None, 2),
    ("colimit", "A2", "L2", 22, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}|{b}>{}|{a}|{b}|{a,b}"), 1, None, 2),
    ("colimit", "A2", "L2", 23, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}>{}|{a}|{b}|{a,b}"),
     1, None, 2),
    ("colimit", "A2", "L2", 24, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"),
     1, None, 2),
    ("colimit", "E", "T2", 0, "*", ("id",), 4, None, 16),
    ("colimit", "E", "T2", 1, None, None, 2, "no universal cocone", 6),
    ("colimit", "E", "T2", 2, None, None, 2, "no universal cocone", 6),
    ("colimit", "T2", "T2", 0, "*", ("id",), 4, None, 16),
    ("colimit", "T2", "T2", 1, None, None, 2, "no universal cocone", 6),
    ("colimit", "T2", "T2", 2, None, None, 2, "no universal cocone", 6),
    ("colimit", "T2", "T2", 3, None, None, 2, "no universal cocone", 6),
    ("colimit", "T2", "T2", 4, None, None, 2, "no universal cocone", 6),
    ("colimit", "Z3", "Z3", 0, "*", ("r0",), 3, None, 9),
    ("colimit", "Z3", "Z3", 1, None, None, 0, "no cocone", 3),
    ("colimit", "Z3", "Z3", 2, None, None, 0, "no cocone", 3),
    ("colimit", "A2", "A2", 0, "w0", ("le:w0>w0", "le:w0>w0"), 1, None, 2),
    ("colimit", "A2", "A2", 1, None, None, 0, "no cocone", 1),
    ("colimit", "A2", "A2", 2, None, None, 0, "no cocone", 1),
    ("colimit", "A2", "A2", 3, "w1", ("le:w1>w1", "le:w1>w1"), 1, None, 2),
    ("colimit", "C3", "C2", 0, "y0", ("le:y0>y0", "le:y0>y0", "le:y0>y0"), 2, None, 6),
    ("colimit", "C3", "C2", 1, "y1", ("le:y0>y1", "le:y0>y1", "le:y1>y1"), 1, None, 5),
    ("colimit", "C3", "C2", 2, "y1", ("le:y0>y1", "le:y1>y1", "le:y1>y1"), 1, None, 4),
    ("colimit", "C3", "C2", 3, "y1", ("le:y1>y1", "le:y1>y1", "le:y1>y1"), 1, None, 3),
    ("limit", "D0", "L2", 0, "{}|{a}|{b}|{a,b}", (), 5, None, 13),
    ("limit", "A2", "L2", 0, "{}", ("le:{}>{}", "le:{}>{}"), 1, None, 2),
    ("limit", "A2", "L2", 1, "{}", ("le:{}>{}", "le:{}>{}|{a}"), 1, None, 2),
    ("limit", "A2", "L2", 2, "{}", ("le:{}>{}", "le:{}>{}|{b}"), 1, None, 2),
    ("limit", "A2", "L2", 3, "{}", ("le:{}>{}", "le:{}>{}|{a}|{b}"), 1, None, 2),
    ("limit", "A2", "L2", 4, "{}", ("le:{}>{}", "le:{}>{}|{a}|{b}|{a,b}"), 1, None, 2),
    ("limit", "A2", "L2", 5, "{}", ("le:{}>{}|{a}", "le:{}>{}"), 1, None, 3),
    ("limit", "A2", "L2", 6, "{}|{a}",
     ("le:{}|{a}>{}|{a}", "le:{}|{a}>{}|{a}"), 2, None, 4),
    ("limit", "A2", "L2", 7, "{}", ("le:{}>{}|{a}", "le:{}>{}|{b}"), 1, None, 3),
    ("limit", "A2", "L2", 8, "{}|{a}",
     ("le:{}|{a}>{}|{a}", "le:{}|{a}>{}|{a}|{b}"), 2, None, 4),
    ("limit", "A2", "L2", 9, "{}|{a}",
     ("le:{}|{a}>{}|{a}", "le:{}|{a}>{}|{a}|{b}|{a,b}"), 2, None, 4),
    ("limit", "A2", "L2", 10, "{}", ("le:{}>{}|{b}", "le:{}>{}"), 1, None, 3),
    ("limit", "A2", "L2", 11, "{}", ("le:{}>{}|{b}", "le:{}>{}|{a}"), 1, None, 3),
    ("limit", "A2", "L2", 12, "{}|{b}",
     ("le:{}|{b}>{}|{b}", "le:{}|{b}>{}|{b}"), 2, None, 4),
    ("limit", "A2", "L2", 13, "{}|{b}",
     ("le:{}|{b}>{}|{b}", "le:{}|{b}>{}|{a}|{b}"), 2, None, 4),
    ("limit", "A2", "L2", 14, "{}|{b}",
     ("le:{}|{b}>{}|{b}", "le:{}|{b}>{}|{a}|{b}|{a,b}"), 2, None, 4),
    ("limit", "A2", "L2", 15, "{}", ("le:{}>{}|{a}|{b}", "le:{}>{}"), 1, None, 5),
    ("limit", "A2", "L2", 16, "{}|{a}",
     ("le:{}|{a}>{}|{a}|{b}", "le:{}|{a}>{}|{a}"), 2, None, 6),
    ("limit", "A2", "L2", 17, "{}|{b}",
     ("le:{}|{b}>{}|{a}|{b}", "le:{}|{b}>{}|{b}"), 2, None, 6),
    ("limit", "A2", "L2", 18, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 4, None, 8),
    ("limit", "A2", "L2", 19, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}", "le:{}|{a}|{b}>{}|{a}|{b}|{a,b}"), 4, None, 8),
    ("limit", "A2", "L2", 20, "{}", ("le:{}>{}|{a}|{b}|{a,b}", "le:{}>{}"), 1, None, 6),
    ("limit", "A2", "L2", 21, "{}|{a}",
     ("le:{}|{a}>{}|{a}|{b}|{a,b}", "le:{}|{a}>{}|{a}"), 2, None, 7),
    ("limit", "A2", "L2", 22, "{}|{b}",
     ("le:{}|{b}>{}|{a}|{b}|{a,b}", "le:{}|{b}>{}|{b}"), 2, None, 7),
    ("limit", "A2", "L2", 23, "{}|{a}|{b}",
     ("le:{}|{a}|{b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}>{}|{a}|{b}"), 4, None, 9),
    ("limit", "A2", "L2", 24, "{}|{a}|{b}|{a,b}",
     ("le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}", "le:{}|{a}|{b}|{a,b}>{}|{a}|{b}|{a,b}"),
     5, None, 13),
    ("limit", "E", "T2", 0, "*", ("id",), 4, None, 16),
    ("limit", "E", "T2", 1, None, None, 1, "no universal cone", 4),
    ("limit", "E", "T2", 2, None, None, 1, "no universal cone", 4),
    ("limit", "T2", "T2", 0, "*", ("id",), 4, None, 16),
    ("limit", "T2", "T2", 1, None, None, 1, "no universal cone", 4),
    ("limit", "T2", "T2", 2, None, None, 1, "no universal cone", 4),
    ("limit", "T2", "T2", 3, None, None, 0, "no cone", 4),
    ("limit", "T2", "T2", 4, None, None, 0, "no cone", 4),
    ("limit", "Z3", "Z3", 0, "*", ("r0",), 3, None, 9),
    ("limit", "Z3", "Z3", 1, None, None, 0, "no cone", 3),
    ("limit", "Z3", "Z3", 2, None, None, 0, "no cone", 3),
    ("limit", "A2", "A2", 0, "w0", ("le:w0>w0", "le:w0>w0"), 1, None, 2),
    ("limit", "A2", "A2", 1, None, None, 0, "no cone", 1),
    ("limit", "A2", "A2", 2, None, None, 0, "no cone", 1),
    ("limit", "A2", "A2", 3, "w1", ("le:w1>w1", "le:w1>w1"), 1, None, 2),
    ("limit", "C3", "C2", 0, "y0", ("le:y0>y0", "le:y0>y0", "le:y0>y0"), 1, None, 3),
    ("limit", "C3", "C2", 1, "y0", ("le:y0>y0", "le:y0>y0", "le:y0>y1"), 1, None, 3),
    ("limit", "C3", "C2", 2, "y0", ("le:y0>y0", "le:y0>y1", "le:y0>y1"), 1, None, 3),
    ("limit", "C3", "C2", 3, "y1", ("le:y1>y1", "le:y1>y1", "le:y1>y1"), 2, None, 6),
]


@pytest.mark.parametrize("op,j,c,i,tip,legs,seen,reason,budget", UNIVERSALS)
def test_colimit_limit_pinned(op, j, c, i, tip, legs, seen, reason, budget):
    F = functors(j, c)[i]
    oper = colimit if op == "colimit" else limit
    res = run_at_smallest_budget(lambda b: oper(F, b), budget)
    assert (res.kind, res.cones_seen, res.reason) == (op, seen, reason)
    if res.cone is None:
        assert (tip, legs) == (None, None)
    else:
        got = (res.cone.tip, tuple(res.cone.legs[o] for o in F.source.objects))
        assert got == (tip, legs)


def test_universal_search_budget_names():
    # e -> id into T2: four (co)cones on the one tip, sixteen mediator steps.
    F = functors("E", "T2")[0]
    for oper, search, universality in (
        (colimit, "cocone search", "colimit universality"),
        (limit, "cone search", "limit universality"),
    ):
        with pytest.raises(BudgetExceeded) as first:
            oper(F, 3)
        with pytest.raises(BudgetExceeded) as second:
            oper(F, 15)
        assert (first.value.what, second.value.what) == (search, universality)


@pytest.mark.parametrize("name", sorted(SEARCH_CATS))
def test_opposite(name):
    C = SEARCH_CATS[name]()
    Cop = opposite(C)
    assert opposite(Cop).same_table(C)
    assert validate_category(Cop).ok
    assert all(Cop.hom(a, b) == C.hom(b, a) for a in C.objects for b in C.objects)


def test_colimit_limit_of_chain(c3):
    ident = identity_functor(c3)
    co = colimit(ident)
    assert co.cone is not None and co.cone.tip == "x2"
    li = limit(ident)
    assert li.cone is not None and li.cone.tip == "x0"


def test_antichain_has_no_cocone():
    anti = build_preorder("anti", ["w0", "w1"], [("w0", "w0"), ("w1", "w1")])
    r = colimit(identity_functor(anti))
    assert r.cone is None
    assert r.reason == "no cocone"


def test_find_iso_in_two_cycle():
    cyc = build_preorder(
        "cyc", ["a", "b"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    )
    assert find_iso(cyc, "a", "b") == ("le:a>b", "le:b>a")
    assert find_iso(cyc, "a", "a") is not None
    c2 = chain_preorder("Y", ["y0", "y1"])
    assert find_iso(c2, "y0", "y1") is None
