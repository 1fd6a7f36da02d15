"""Order layer: carriers, set maps, down-closed null families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullkan.fincat import EngineError
from nullkan.order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    all_down_sets,
    cardinality_nullity,
    down_closure,
    full_nullity,
    intersect_all,
    is_down_closed,
    preimage_nullity,
    preservation_witness,
    proper_nullity,
    pushforward_closure,
    trivial_nullity,
    union_all,
)


def carriers(max_size=4):
    return st.integers(min_value=1, max_value=max_size).map(
        lambda n: FiniteSet(tuple(f"e{i}" for i in range(n)))
    )


@st.composite
def set_maps(draw, max_size=4):
    dom = draw(carriers(max_size))
    cod = draw(carriers(max_size))
    images = tuple(
        draw(st.integers(0, cod.size - 1)) for _ in range(dom.size)
    )
    return SetMap(dom, cod, images)


@st.composite
def injections(draw, max_size=4):
    cod = draw(carriers(max_size))
    dom_size = draw(st.integers(1, cod.size))
    perm = draw(st.permutations(range(cod.size)))
    return SetMap(FiniteSet(tuple(f"d{i}" for i in range(dom_size))), cod, tuple(perm[:dom_size]))


@st.composite
def families(draw, carrier, max_seeds=5):
    seeds = draw(st.sets(st.integers(0, carrier.full_mask), max_size=max_seeds))
    return down_closure(carrier, seeds)


def test_mask_round_trip():
    c = FiniteSet(("a", "b", "c"))
    for m in c.all_masks():
        assert c.mask_of(c.elems_of(m)) == m
    assert c.label(0b101) == "{a,c}"
    with pytest.raises(EngineError):
        c.mask_of(["z"])


def test_carrier_rejects_duplicates():
    with pytest.raises(EngineError):
        FiniteSet(("a", "a"))


def test_setmap_basics():
    a = FiniteSet(("x", "y"))
    b = FiniteSet(("u", "v", "w"))
    f = SetMap.from_dict(a, b, {"x": "w", "y": "u"})
    assert f.apply("x") == "w"
    assert f.image_mask(0b11) == b.mask_of(["u", "w"])
    assert f.preimage_mask(b.mask_of(["w"])) == a.mask_of(["x"])
    g = SetMap.identity(b)
    assert f.then(g).as_dict() == f.as_dict()
    with pytest.raises(EngineError):
        g.then(f)


def test_setmap_rejects_bad_images():
    a, b = FiniteSet(("x", "y")), FiniteSet(("u", "v"))
    with pytest.raises(EngineError, match="set map images do not cover the domain"):
        SetMap(a, b, (0,))
    for bad in ((0, 2), (-1, 0)):
        with pytest.raises(EngineError, match="set map image index out of range"):
            SetMap(a, b, bad)


AB = ("a", "b")
RECORDS = {
    # name -> (a maker of one value, a field, the value's fields as a tuple)
    "FiniteSet": (lambda: FiniteSet(AB), "elements", (AB,)),
    "SetMap": (
        lambda: SetMap(FiniteSet(AB), FiniteSet(("u",)), (0, 0)),
        "images",
        (FiniteSet(AB), FiniteSet(("u",)), (0, 0)),
    ),
    "NullityStructure": (
        lambda: NullityStructure(FiniteSet(AB), frozenset({0, 1})),
        "masks",
        (FiniteSet(AB), frozenset({0, 1})),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_values(name):
    make, field, fields = RECORDS[name]
    x, y = make(), make()
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert {x: name}[y] == name and y in [x]
    assert x != fields and fields != x
    for other, (make_other, _, _) in RECORDS.items():
        if other != name:
            assert x != make_other()
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    assert x == y


def test_unequal_fields_make_unequal_records():
    assert FiniteSet(AB) != FiniteSet(("b", "a"))
    c = FiniteSet(AB)
    assert SetMap(c, c, (0, 1)) != SetMap(c, c, (1, 0))
    assert trivial_nullity(c) != full_nullity(c)
    assert {trivial_nullity(c), trivial_nullity(FiniteSet(AB)), full_nullity(c)} == {
        full_nullity(c), trivial_nullity(c)
    }


@given(set_maps())
def test_image_preimage_galois(f):
    for s in f.dom.all_masks():
        assert f.preimage_mask(f.image_mask(s)) & s == s
    for t in f.cod.all_masks():
        assert f.image_mask(f.preimage_mask(t)) | t == t


@given(carriers(), st.data())
def test_down_closure_is_closed_and_idempotent(c, data):
    n = data.draw(families(c))
    assert 0 in n.masks
    assert is_down_closed(n.masks, c.size)
    again = down_closure(c, n.masks)
    assert again.masks == n.masks


def test_structure_validation():
    c = FiniteSet(("a", "b"))
    with pytest.raises(EngineError):
        NullityStructure(c, frozenset({0b11}))  # not down-closed
    with pytest.raises(EngineError):
        NullityStructure(c, frozenset({1}))  # missing the empty set
    with pytest.raises(EngineError):
        NullityStructure(c, frozenset({0, 0b100}))  # outside the carrier


def test_canned_structures():
    c = FiniteSet(("a", "b"))
    assert trivial_nullity(c).masks == {0}
    assert full_nullity(c).masks == {0, 1, 2, 3}
    assert proper_nullity(c).masks == {0, 1, 2}
    assert cardinality_nullity(c, 1).masks == {0, 1, 2}
    assert cardinality_nullity(FiniteSet(()), 0).masks == {0}
    with pytest.raises(EngineError):
        proper_nullity(FiniteSet(()))


@given(carriers(), st.data())
def test_union_intersect_lattice_laws(c, data):
    a = data.draw(families(c))
    b = data.draw(families(c))
    assert union_all(c, [a, b]).masks == union_all(c, [b, a]).masks
    assert intersect_all(c, [a, b]).masks == intersect_all(c, [b, a]).masks
    assert union_all(c, [a, intersect_all(c, [a, b])]).masks == a.masks
    assert intersect_all(c, [a, union_all(c, [a, b])]).masks == a.masks


def test_empty_family_conventions():
    c = FiniteSet(("a", "b"))
    assert union_all(c, []).masks == {0}
    assert intersect_all(c, []).is_full()
    with pytest.raises(EngineError):
        union_all(c, [trivial_nullity(FiniteSet(("z",)))])


@given(set_maps(), st.data())
def test_preimage_nullity_functorial(f, data):
    g_cod = data.draw(carriers())
    images = tuple(
        data.draw(st.integers(0, g_cod.size - 1)) for _ in range(f.cod.size)
    )
    g = SetMap(f.cod, g_cod, images)
    n = data.draw(families(f.dom))
    two_step = preimage_nullity(g, preimage_nullity(f, n))
    one_step = preimage_nullity(f.then(g), n)
    assert two_step.masks == one_step.masks


@given(carriers(), st.data())
def test_preimage_nullity_identity(c, data):
    n = data.draw(families(c))
    assert preimage_nullity(SetMap.identity(c), n).masks == n.masks


@given(injections(), st.data())
def test_injective_pushforward_inside_preimage(f, data):
    n = data.draw(families(f.dom))
    assert pushforward_closure(f, n).masks <= preimage_nullity(f, n).masks


@given(injections(), st.integers(0, 4))
def test_injective_preserves_cardinality_bound(f, k):
    lifted = preimage_nullity(f, cardinality_nullity(f.dom, k))
    assert cardinality_nullity(f.cod, min(k, f.dom.size)).masks <= lifted.masks


def test_image_violation_witness():
    a = FiniteSet(("x", "y"))
    swap = SetMap.from_dict(a, a, {"x": "y", "y": "x"})
    n = down_closure(a, [a.mask_of(["x"])])
    bad = preservation_witness(swap, n.masks, n.masks)
    assert bad == a.mask_of(["x"])
    assert preservation_witness(swap, trivial_nullity(a).masks, trivial_nullity(a).masks) is None


def test_all_down_sets_counts():
    # nonempty antichains of the boolean lattice: 1, 2, 5, 19
    for n, count in ((0, 1), (1, 2), (2, 5), (3, 19)):
        c = FiniteSet(tuple(f"e{i}" for i in range(n)))
        fams = all_down_sets(c)
        assert len(fams) == count
        assert len(set(fams)) == count
    with pytest.raises(EngineError):
        all_down_sets(FiniteSet(tuple("abcde")))

