"""Comma categories, their forgetfuls, and induced functors between them."""

import pytest

import nullkan.comma
from nullkan.comma import (
    arrow_category,
    bang_functor,
    build_comma,
    check_right_inverse,
    comma_mor,
    comma_obj,
    const_functor,
    functor_inverse,
    induced_comma_functor,
    terminal_category,
)
from nullkan.fincat import (
    EngineError,
    FinCategory,
    FunctorData,
    chain_preorder,
    check_functor,
    compose_functors,
    functor_equal,
    identity_functor,
    validate_category,
)


def thin(name, src, tgt, obj_map):
    mor_map = {}
    for m in src.morphisms:
        mor_map[m.name] = tgt.hom(obj_map[m.dom], obj_map[m.cod])[0]
    return FunctorData(name, src, tgt, obj_map, mor_map)


@pytest.fixture
def c2():
    return chain_preorder("Y", ["y0", "y1"])


@pytest.fixture
def c3():
    return chain_preorder("X", ["x0", "x1", "x2"])


def test_terminal_category():
    star = terminal_category()
    assert star.objects == ("*",)
    assert star.morphisms[0].name == "id:*"
    assert validate_category(star).ok


def test_points_comma_recovers_the_category(c2):
    star = terminal_category()
    cc = build_comma(identity_functor(star), bang_functor(c2), "pts")
    assert len(cc.category.objects) == len(c2.objects)
    assert len(cc.category.morphisms) == len(c2.morphisms)
    assert validate_category(cc.category).ok
    inv = functor_inverse(cc.forget2)
    assert inv is not None
    assert functor_equal(compose_functors(cc.forget2, inv), identity_functor(c2))
    assert check_right_inverse(cc.forget2, inv)


def test_arrow_category_of_chain(c2):
    arr = arrow_category(c2)
    assert len(arr.category.objects) == len(c2.morphisms)
    assert validate_category(arr.category).ok
    assert check_functor(arr.forget1).ok
    assert check_functor(arr.forget2).ok
    assert comma_obj("y0", "le:y0>y1", "y1") in arr.obj_data


def test_comma_object_data(c3):
    arr = arrow_category(c3)
    top = comma_obj("x0", "le:x0>x2", "x2")
    a, phi, b = arr.obj_data[top]
    assert (a, phi, b) == ("x0", "le:x0>x2", "x2")
    assert comma_obj("x2", "le:x0>x2", "x0") not in arr.obj_data


def test_comma_morphism_marginals(c3):
    arr = arrow_category(c3)
    for m in arr.category.morphisms:
        f, g = arr.forget1.on_mor(m.name), arr.forget2.on_mor(m.name)
        assert m.name == comma_mor(f, g, m.dom, m.cod)


def test_build_comma_respects_bounds(c3, monkeypatch):
    ident = identity_functor(c3)
    with monkeypatch.context() as m:
        m.setattr(nullkan.comma, "MAX_COMMA_OBJECTS", 2)
        with pytest.raises(EngineError, match="6 objects exceed bound 2"):
            build_comma(ident, ident, "tiny")
    # the morphism bound is exact
    n_mor = len(arrow_category(c3).category.morphisms)
    monkeypatch.setattr(nullkan.comma, "MAX_COMMA_MORPHISMS", n_mor)
    assert len(build_comma(ident, ident).category.morphisms) == n_mor
    monkeypatch.setattr(nullkan.comma, "MAX_COMMA_MORPHISMS", n_mor - 1)
    with pytest.raises(EngineError, match=f"more than {n_mor - 1} morphisms"):
        build_comma(ident, ident, "tiny")


def test_build_comma_refuses_before_naming_a_morphism(monkeypatch):
    # Arr of a 5-chain has 15 objects and 105 morphisms: the squares are
    # counted in full on indices, and no morphism is named on refusal.
    c5 = chain_preorder("C5", ["a", "b", "c", "d", "e"])
    ident = identity_functor(c5)
    n_mor = len(arrow_category(c5).category.morphisms)
    assert n_mor == 105
    named = []
    monkeypatch.setattr("nullkan.comma.comma_mor", lambda *a: named.append(a) or "m")
    for bound in (0, 1, 17, n_mor - 1):
        monkeypatch.setattr(nullkan.comma, "MAX_COMMA_MORPHISMS", bound)
        with pytest.raises(EngineError, match=f"more than {bound} morphisms"):
            build_comma(ident, ident, "small")
    assert named == []


def test_build_comma_names_a_square_that_does_not_commute(c3):
    # alpha sends both steps of the chain to the idempotent e but their
    # composite to the identity, so the composite of two squares is none.
    mon = FinCategory(
        "M",
        ("*",),
        (("id", "*", "*"), ("e", "*", "*")),
        {"*": "id"},
        {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"},
    )
    images = {"le:x0>x1": "e", "le:x1>x2": "e", "le:x0>x2": "id"}
    mor_map = {m.name: images.get(m.name, "id") for m in c3.morphisms}
    alpha = FunctorData("alpha", c3, mon, dict.fromkeys(c3.objects, "*"), mor_map)
    with pytest.raises(EngineError) as err:
        build_comma(alpha, identity_functor(mon), "bent")
    assert str(err.value) == (
        "bent: [le:x1>x2;e](x1;id;*)>(x2;id;*) after "
        "[le:x0>x1;e](x0;id;*)>(x1;id;*) is not a commuting square"
    )


def test_build_comma_names_a_missing_composite(c3):
    gappy = FinCategory(
        "G",
        c3.objects,
        c3.morphisms,
        c3.identity,
        {k: v for k, v in c3.composition.items() if k != ("le:x1>x2", "le:x0>x1")},
    )
    with pytest.raises(EngineError) as err:
        arrow_category(gappy)
    assert str(err.value) == "G: composition table has no entry for ('le:x1>x2', 'le:x0>x1')"


def test_induced_functor_between_slices(c2, c3):
    # post-compose with a collapse X -> Y on the right leg
    collapse = thin("collapse", c3, c2, {"x0": "y0", "x1": "y0", "x2": "y1"})
    src = arrow_category(c3)
    dst = build_comma(collapse, collapse, "coll")
    t = induced_comma_functor(
        "both", identity_functor(c3), collapse, identity_functor(c3), src, dst
    )
    assert check_functor(t).ok
    # marginals commute with the triple
    assert functor_equal(
        compose_functors(dst.forget1, t), compose_functors(identity_functor(c3), src.forget1)
    )


def test_induced_functor_rejects_bad_square(c2, c3):
    incl = thin("incl", c2, c3, {"y0": "x0", "y1": "x2"})
    bot = thin("bot", c2, c3, {"y0": "x0", "y1": "x0"})
    src = arrow_category(c2)
    dst = arrow_category(c3)
    with pytest.raises(EngineError, match="left square fails"):
        induced_comma_functor("skew", incl, bot, incl, src, dst)


def test_const_functor(c3):
    star = terminal_category()
    at = const_functor(star, c3, "x1")
    assert check_functor(at).ok
    assert at.on_obj("*") == "x1"
