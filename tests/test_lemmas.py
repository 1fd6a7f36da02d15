"""Seeded instance suite for the supporting composition identities."""

import pytest

from nullkan.construct import builtin_model
from nullkan.fincat import EngineError, chain_preorder, identity_functor
from nullkan.lemmas import (
    LEMMA_CHECKS,
    _chain,
    check_comma_inherits_adjoint,
    check_kan_after_composite,
    check_kan_restrict_source,
    check_kan_square,
    check_precompose_invariance,
    check_setup_adjoints,
    run_lemma_suite,
    thin_functor,
)
from nullkan.report import canonical_json, digest


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


# digest(canonical_json(run_lemma_suite(seed, budget))) pins every row,
# reason and note, at budgets that run out at once, midway and never; seeds
# 4-15 pin the order in which the generators draw their instances.
SUITE_DIGESTS = {
    (0, 1): "49d96cfce44bf8422559cf36394b350d3a821c861d1bea58c9cb750e4a64354c",
    (0, 13): "31726e93346186ad6cd8860d1773133dc304ba8c2f73ae7ec225b5d6d37a6aae",
    (0, 200_000): "1c458d94f5fe31768dabb8afcbaa0d97d76a6fba4345aaaf64619587a11c7524",
    (1, 1): "38515ba9dcfcd1fc7a0325f4f3434a078184d813f98195ff146cbaa20fa6a885",
    (1, 13): "e09a3a11b1d8004da535b4a63ee985fea76597c50ecc1a4bb32f1f4169ceae5a",
    (1, 200_000): "d8ffeab7a8b1b609ad9e716ca119d3fc2dd5c6f18283d5c1dcb9e39d4552ec96",
    (2, 1): "fd8b0bbb4d713d17ff151917cede2a1532c17e8e092e0c0f2e248556aafafded",
    (2, 13): "397d9b0c4687bb049e4ca6d6066517d30580331d15b71b2024ac67f04d7e9fe2",
    (2, 200_000): "1b63da01db8932cc43057982d39c94ce974270a67d754348ad1e057189f06468",
    (3, 1): "ed541e2b945ee0737b31ce11b367bad07ee207f495f40c7543cc1473334da711",
    (3, 13): "b67f9e67dbef4363104f94b113fde6172bba1406ab45d7654b258b9d32a25779",
    (3, 200_000): "3a737f4b57c402decb81250593eef451558bbe3e61a0e7dfc296d17214fbbfea",
    (4, 200_000): "95ecec648c35646e3e3763e1a79ecbcc901fdba93f12acc68d03a0e2e974ceba",
    (5, 200_000): "6944ab2b3a28fab0c1bfd0c7952ba8b76d2423ecd8576164561f29d6d5f938c7",
    (6, 200_000): "02f7942fa2d9925ab30b51fd52ad822074464088bdbc0286f99e4bfcfc604d28",
    (7, 200_000): "bb5884e0fe568f5b8d0c98ed147795a345e7208af43f9fa57466e82eab9ea633",
    (8, 200_000): "510e997970c2c2b5f4f8c24f3ed7261d1460fd9a1d140fa4ff621f3fd081e3a6",
    (9, 200_000): "7ef0b546df356d2bb22ac5f608ee53d892a7ab4ad8ade853dc29a3e26ec85f90",
    (10, 200_000): "c6dec4611ae494994723c28e40d2ab92e60bec4f3c2b2c25ebc197ef78acb467",
    (11, 200_000): "e99964012cd911e8e81b918dbdc82f1cbad1e152dda89ff8fa0e13c618f01ea9",
    (12, 200_000): "b39a50676c3ddc391756194d4148091d89abeb42689ea6c199599fbfed7f654c",
    (13, 200_000): "3f82683283877e8518fa1247f042de2b377f21bba6e0a8cd5655fa18013ed7b4",
    (14, 200_000): "9b51c5352de2b7e0b4fc7733441cc2502dde4e750cd701b6b3c536285cffeeed",
    (15, 200_000): "850a7cc67794968cf61d7bc31228cef5908e55dd529051d00aa36d0a3fa3039f",
}


@pytest.mark.parametrize("seed,budget", sorted(SUITE_DIGESTS))
def test_suite_report_is_pinned(seed, budget):
    report = canonical_json(run_lemma_suite(seed, budget)).encode()
    assert digest(report) == "sha256:" + SUITE_DIGESTS[seed, budget]


def test_chains_are_built_once():
    assert _chain("x", 2) is _chain("x", 2)


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
