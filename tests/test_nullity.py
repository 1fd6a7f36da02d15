"""Nullity structures as data: set categories, materialization, saturation."""

import random

import pytest

import nullkan.nullity
from nullkan.fincat import (
    MAX_VIOLATIONS,
    EngineError,
    FinCategory,
    discrete_category,
    validate_category,
)
from nullkan.nullity import (
    bar_null,
    carrier_functor,
    carrier_of,
    check_carrier_action,
    check_nullity_assignment,
    materialize_nullity_category,
    nullity_fiber_preorder,
    set_category,
    setmap_of,
)
from nullkan.order import (
    FiniteSet,
    SetMap,
    down_closure,
    full_nullity,
    preservation_witness,
    proper_nullity,
    trivial_nullity,
)


@pytest.fixture
def loop():
    """One object with an involution."""
    cat = FinCategory(
        "loop",
        ("o",),
        [("id:o", "o", "o"), ("s", "o", "o")],
        {"o": "id:o"},
        {
            ("id:o", "id:o"): "id:o",
            ("id:o", "s"): "s",
            ("s", "id:o"): "s",
            ("s", "s"): "id:o",
        },
    )
    c = FiniteSet(("x0", "x1"))
    gamma = carrier_functor(
        "act",
        cat,
        {"o": c},
        {"id:o": SetMap.identity(c), "s": SetMap.from_dict(c, c, {"x0": "x1", "x1": "x0"})},
    )
    return cat, c, gamma


def test_set_category_sizes():
    c1, c2 = FiniteSet(("1",)), FiniteSet(("a", "b"))
    cat, obj_carrier, mor_map = set_category("S", [c1, c2])
    # 1 + 2 + 1 + 4 maps between the two carriers
    assert len(cat.objects) == 2
    assert len(cat.morphisms) == 8
    assert validate_category(cat).ok
    for (g, f), gf in cat.composition.items():
        if cat.cod(f) == cat.dom(g):
            assert mor_map[f].then(mor_map[g]).images == mor_map[gf].images


def test_materialized_sizes():
    for carrier, objs, mors in (
        (FiniteSet(()), 1, 1),
        (FiniteSet(("1",)), 2, 3),
        (FiniteSet(("a", "b")), 5, 62),
    ):
        m = materialize_nullity_category("N", [carrier])
        assert len(m.category.objects) == objs
        assert len(m.category.morphisms) == mors


def test_materialized_three_element_carrier():
    m = materialize_nullity_category("N3", [FiniteSet(("a", "b", "c"))])
    assert len(m.category.objects) == 19
    assert len(m.category.morphisms) == 5067


def test_materialized_lookups():
    c = FiniteSet(("a", "b"))
    m = materialize_nullity_category("N", [c])
    n = down_closure(c, [c.mask_of(["a"])])
    (oid,) = [o for o, s in m.structure.items() if s.masks == n.masks]
    endo_maps = {m.setmap[f].images: f for f in m.category.endos(oid)}
    assert m.category.is_identity(endo_maps[SetMap.identity(c).images])
    swap = SetMap.from_dict(c, c, {"a": "b", "b": "a"})
    assert swap.images not in endo_maps  # swap sends the null {a} to {b}


def test_materialize_shares_each_set_map_and_its_name():
    # Carriers of 0, 1 and 2 elements give 8 objects and 95 morphisms over
    # the 11 maps between the carriers.  Each map is built once, and the
    # forgetful functor names each image by the one string of its Set
    # morphism.
    m = materialize_nullity_category("N", [FiniteSet(tuple("ab"[:k])) for k in range(3)])
    assert (len(m.category.objects), len(m.setmap)) == (8, 95)
    assert len({id(f) for f in m.setmap.values()}) == 11
    forget = m.category.faithful[0]
    assert len({id(name) for name in forget.mor_map.values()}) == 11
    assert set(forget.mor_map.values()) == {mor.name for mor in forget.target.morphisms}


def test_materialize_carrier_cap():
    with pytest.raises(EngineError):
        materialize_nullity_category("big", [FiniteSet(tuple("abcd"))])


def test_materialize_morphism_cap(monkeypatch):
    monkeypatch.setattr(nullkan.nullity, "MAX_MATERIALIZED_MORPHISMS", 62)
    assert len(materialize_nullity_category("N", [FiniteSet(("a", "b"))]).category.morphisms) == 62
    monkeypatch.setattr(nullkan.nullity, "MAX_MATERIALIZED_MORPHISMS", 61)
    with pytest.raises(EngineError, match="N: 62 morphisms exceeds bound 61"):
        materialize_nullity_category("N", [FiniteSet(("a", "b"))])


@pytest.mark.parametrize(
    "sizes,entries",
    [((4,), 65_536), ((4, 4), 524_288), ((3,) * 10, 729_000), ((0, 1, 2, 3), 1_678)],
)
def test_set_category_counts_its_entries_before_building(sizes, entries, monkeypatch):
    # The last case is the injections models' carriers.
    carriers = [FiniteSet(tuple(f"e{i}_{k}" for i in range(n))) for k, n in enumerate(sizes)]
    assert len(set_category("S", carriers)[0].composition) == entries
    monkeypatch.setattr(nullkan.nullity, "MAX_SET_ENTRIES", entries - 1)
    with pytest.raises(EngineError, match=f"{entries} composition entries exceed bound"):
        set_category("S", carriers)


def test_set_category_refuses_before_enumerating_a_map(monkeypatch):
    # A 5-element carrier alone has 5^5 maps out and 5^5 maps in.
    tried = []
    monkeypatch.setattr(nullkan.nullity, "all_set_maps", lambda *a: tried.append(a) or ())
    with pytest.raises(EngineError, match="S: 9765625 composition entries exceed bound 1048576"):
        set_category("S", [FiniteSet(tuple("abcde"))])
    assert tried == []


def test_images_certificate_on_mutated_set_category():
    # As for the materialized category's functor certificate: an entry
    # redirected to a parallel morphism keeps every endpoint right, and the
    # re-attached image tuples must then prove nothing.
    cat = set_category("S3", [FiniteSet(("a", "b", "c"))])[0]
    rng = random.Random(0)
    for key in rng.sample(list(cat.composition), 10):
        others = [p for p in cat.morphisms if p.name != cat.composition[key]]
        comp = {**cat.composition, key: rng.choice(others).name}
        broken = FinCategory("S3-bad", cat.objects, cat.morphisms, dict(cat.identity), comp)
        plain = validate_category(broken).as_dict()
        broken.images = cat.images
        assert validate_category(broken).as_dict() == plain
        assert not plain["ok"]


def test_fiber_preorder():
    p, families = nullity_fiber_preorder(FiniteSet(("a", "b")))
    assert len(p.objects) == 5
    assert len(p.morphisms) == 14  # inclusions among the five families
    assert validate_category(p).ok
    assert families["{}"] == frozenset({0})
    assert len(families) == 5


def test_carrier_action_checks(loop):
    cat, c, gamma = loop
    assert check_carrier_action(gamma).ok
    broken = carrier_functor(
        "broken",
        cat,
        {"o": c},
        {
            "id:o": SetMap.identity(c),
            "s": SetMap.from_dict(c, c, {"x0": "x1", "x1": "x1"}),  # s.s != id
        },
    )
    rep = check_carrier_action(broken)
    assert not rep.ok
    assert carrier_of(gamma, "o") == c
    assert setmap_of(gamma, "s").apply("x0") == "x1"


def test_carrier_action_stops_at_the_witness_cap():
    # Each identity carries the swap of two points: one identity witness
    # per object, and the check stops at the cap.
    cat = discrete_category("d30", [f"o{i}" for i in range(30)])
    c = FiniteSet(("x0", "x1"))
    swap = SetMap.from_dict(c, c, {"x0": "x1", "x1": "x0"})
    gamma = carrier_functor(
        "swaps", cat, {x: c for x in cat.objects}, {m.name: swap for m in cat.morphisms}
    )
    rep = check_carrier_action(gamma)
    assert len(rep.violations) == MAX_VIOLATIONS
    assert {v.law for v in rep.violations} == {"carrier-identity"}
    assert rep.checked == {"endpoints": 30, "identities": MAX_VIOLATIONS, "composition": 0}


def test_nullity_assignment_functoriality(loop):
    cat, c, gamma = loop
    ok = check_nullity_assignment(gamma, {"o": proper_nullity(c)})
    assert ok.ok
    skew = {"o": down_closure(c, [c.mask_of(["x0"])])}
    rep = check_nullity_assignment(gamma, skew)
    assert not rep.ok
    w = rep.violations[0].as_dict()["witness"]
    assert w["morphism"] == "s"


def test_bar_and_saturation(loop):
    cat, c, gamma = loop
    skew = {"o": down_closure(c, [c.mask_of(["x0"])])}
    bar = bar_null(gamma, skew)
    assert bar["o"].masks == proper_nullity(c).masks != skew["o"].masks
    assert bar_null(gamma, {"o": proper_nullity(c)})["o"].masks == proper_nullity(c).masks
    assert bar_null(gamma, {"o": trivial_nullity(c)})["o"].masks == trivial_nullity(c).masks


def test_nullity_morphism_predicates():
    c = FiniteSet(("a", "b"))
    swap = SetMap.from_dict(c, c, {"a": "b", "b": "a"})
    proper = proper_nullity(c).masks
    assert preservation_witness(swap, proper, proper) is None
    only_a = down_closure(c, [c.mask_of(["a"])]).masks
    assert preservation_witness(swap, only_a, only_a) == c.mask_of(["a"])
    assert preservation_witness(swap, only_a, full_nullity(c).masks) is None
