"""Seeded instance suite for the supporting composition identities."""

import pytest

from nullkan.construct import builtin_model
from nullkan.fincat import EngineError, chain_preorder, identity_functor
from nullkan.lemmas import (
    LEMMA_CHECKS,
    check_comma_inherits_adjoint,
    check_kan_after_composite,
    check_kan_restrict_source,
    check_kan_square,
    check_precompose_invariance,
    check_setup_adjoints,
    run_lemma_suite,
    thin_functor,
)


@pytest.fixture
def chains():
    return chain_preorder("A", ["a0", "a1", "a2"]), chain_preorder("B", ["b0", "b1"])


def test_thin_functor_requires_monotone(chains):
    c3, c2 = chains
    f = thin_functor("surj", c3, c2, {"a0": "b0", "a1": "b0", "a2": "b1"})
    assert f.on_mor("le:a0>a2") == "le:b0>b1"
    with pytest.raises(EngineError, match="has no image"):
        thin_functor("down", c2, c2, {"b0": "b1", "b1": "b0"})


def test_precompose_invariance_statuses(chains):
    c3, c2 = chains
    surj = thin_functor("surj", c3, c2, {"a0": "b0", "a1": "b0", "a2": "b1"})
    ident = identity_functor(c2)
    row = check_precompose_invariance(surj, ident, "colim")
    assert row["status"] == "verified"
    assert row["tips"] == ("b1", "b1")
    bot = thin_functor("bot", c2, c2, {"b0": "b0", "b1": "b0"})
    row = check_precompose_invariance(bot, ident, "colim")
    assert row["status"] == "vacuous"
    assert "no post-right adjoint" in row["reason"]


def test_comma_inherits_adjoint(chains):
    c3, c2 = chains
    surj = thin_functor("surj", c3, c2, {"a0": "b0", "a1": "b0", "a2": "b1"})
    row = check_comma_inherits_adjoint(surj, identity_functor(c2), "post")
    assert row["status"] == "verified"
    assert row["comma_objects"] == (5, 3)


def test_kan_restrict_source_reports_vacuous_anchors(chains):
    c3, c2 = chains
    ident = identity_functor(c2)
    row = check_kan_restrict_source(ident, ident, ident, "colim")
    assert row["status"] == "verified"
    assert row["objects_checked"] == 2
    assert row["vacuous_at"] == []
    # stated hypotheses do not force the slice comparison to have an
    # adjoint at every anchor; the checker says where it is missing
    top = thin_functor("top", c2, c2, {"b0": "b1", "b1": "b1"})
    row = check_kan_restrict_source(top, top, ident, "colim")
    assert row["status"] == "verified"
    assert row["vacuous_at"][0]["anchor"] == "b0"


def test_kan_square_noncommuting_is_vacuous(chains):
    c3, c2 = chains
    ident = identity_functor(c2)
    bot = thin_functor("bot", c2, c2, {"b0": "b0", "b1": "b0"})
    top = thin_functor("top", c2, c2, {"b0": "b1", "b1": "b1"})
    row = check_kan_square(ident, ident, ident, bot, top, "colim")
    assert row["status"] == "vacuous"
    assert "does not commute" in row["reason"]


def test_kan_after_composite_identity(chains):
    c3, c2 = chains
    ident3 = identity_functor(c3)
    surj = thin_functor("surj", c3, c2, {"a0": "b0", "a1": "b0", "a2": "b1"})
    row = check_kan_after_composite(ident3, ident3, surj, "colim")
    assert row["status"] == "verified"
    assert not row["failures"]


def test_suite_thresholds_and_counts():
    suite = run_lemma_suite(seed=0)
    assert set(suite) == set(LEMMA_CHECKS)
    expected = {
        "precompose_invariance": (14, 9, 5),
        "comma_inherits_adjoint": (11, 10, 1),
        "kan_restrict_source": (9, 6, 3),
        "kan_after_composite": (10, 9, 1),
        "kan_square": (9, 7, 2),
    }
    for name, (instances, verified, vacuous) in expected.items():
        row = suite[name]
        assert row["instances"] == instances
        assert row["verified"] == verified
        assert row["vacuous"] == vacuous
        assert row["failures"] == []
        assert row["verified"] >= 5  # enough real instances per claim
        assert row["vacuous"] >= 1  # and at least one reported skip


def test_suite_is_seed_deterministic():
    a = run_lemma_suite(seed=3)
    b = run_lemma_suite(seed=3)
    assert a == b


def test_setup_adjoints_on_f2():
    got = check_setup_adjoints(builtin_model("f2_proper"))
    assert got["pi_star_right_inverse"] == {"present": False, "how": "absent"}
    assert got["forget2_right_inverse"]["present"]
    assert got["iota2_post_right_adjoint"] == {"present": True, "how": "composite"}
    assert got["iota1_pre_right_adjoint"] == {"present": False, "how": "absent"}
    assert got["forget2_pre_right_adjoint"] == {"present": True, "how": "section"}


def test_setup_adjoints_on_identity_model():
    got = check_setup_adjoints(builtin_model("identity"))
    assert all(v["present"] for v in got.values())
    assert got["pi_star_right_inverse"]["how"] == "induced"


def test_setup_adjoints_on_injections():
    # The forget2 section search runs inside the fibers of forget2, so it
    # ends well within the default budget instead of answering "budget".
    got = check_setup_adjoints(builtin_model("injections_card_0"))
    assert got["forget2_right_inverse"] == {"present": True, "how": "search"}
    assert got["forget2_pre_right_adjoint"] == {"present": True, "how": "section"}
    assert got["pi_star_right_inverse"] == {"present": True, "how": "induced"}
    assert got["iota2_post_right_adjoint"] == {"present": True, "how": "composite"}
    assert got["iota1_pre_right_adjoint"] == {"present": True, "how": "composite"}


@pytest.mark.parametrize("model", ["injections_card_0", "f2_proper"])
def test_setup_adjoints_report_budget_at_every_small_budget(model):
    # Every exhausted search, the declared composite candidate's check
    # included, is reported as "budget" instead of escaping as an error.
    s = builtin_model(model)
    seen = set()
    for budget in range(31):
        got = check_setup_adjoints(s, budget)
        seen |= {(k, v["how"]) for k, v in got.items()}
    assert ("iota2_post_right_adjoint", "budget") in seen
    assert ("iota2_post_right_adjoint", "composite") in seen
