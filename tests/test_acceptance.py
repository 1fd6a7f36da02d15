"""Acceptance sweep: one timed criterion per test.

Each test prints a single `AC-n pass (…s < …s)` line (visible with -s, or in
the captured output on failure) and fails if its wall-clock limit is missed.
"""

import random
import time
from contextlib import contextmanager

from nullkan.cli import main as cli_main
from nullkan.comma import (
    arrow_category,
    bang_functor,
    build_comma,
    check_right_inverse,
    functor_inverse,
    terminal_category,
)
from nullkan.construct import (
    BUILTIN_NAMES,
    build_comma_web,
    builtin_model,
    direct_prevalence,
    main_null,
    verify_extension,
    verify_invariance,
    verify_minimality,
)
from nullkan.fincat import (
    FinCategory,
    build_preorder,
    chain_preorder,
    compose_functors,
    discrete_category,
    functor_equal,
    identity_functor,
    power_set_preorder,
    validate_category,
)
from nullkan.lemmas import check_setup_adjoints, run_lemma_suite
from nullkan.nullity import (
    bar_null,
    carrier_of,
    materialize_nullity_category,
    nullity_fiber_preorder,
)
from nullkan.order import FiniteSet, down_closure, proper_nullity
from nullkan.specfile import parse_spec, serialize_spec, to_setup


@contextmanager
def criterion(tag, limit, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{tag} FAIL ({time.perf_counter() - t0:.2f}s): {label}")
        raise
    dt = time.perf_counter() - t0
    assert dt < limit, f"{tag} took {dt:.2f}s, limit is {limit}s"
    print(f"{tag} pass ({dt:.2f}s < {limit:.0f}s): {label}")


def mutated(cat, rng):
    """Copy of cat with one composition entry redirected elsewhere."""
    keys = sorted(cat.composition)
    g, f = keys[rng.randrange(len(keys))]
    current = cat.composition[(g, f)]
    others = sorted(m.name for m in cat.morphisms if m.name != current)
    comp = dict(cat.composition)
    comp[(g, f)] = others[rng.randrange(len(others))]
    return FinCategory(
        cat.name + "-mut",
        cat.objects,
        [(m.name, m.dom, m.cod) for m in cat.morphisms],
        dict(cat.identity),
        comp,
    )


def test_ac1_builders_validate_and_mutations_are_caught():
    with criterion("AC-1", 10.0, "every builder validates; seeded table mutations are caught"):
        chain = chain_preorder("c4", ("a", "b", "c", "d"))
        divisors = build_preorder(
            "div6",
            tuple("123456"),
            [(x, y) for x in "123456" for y in "123456" if int(y) % int(x) == 0],
        )
        arrows = arrow_category(chain)
        fiber, _ = nullity_fiber_preorder(FiniteSet(("u", "v")))
        pool = [
            chain,
            divisors,
            discrete_category("d3", ("x", "y", "z")),
            arrows.category,
            fiber,
        ]
        pool += [power_set_preorder(f"P{n}", tuple("abcd"[:n])) for n in range(4)]
        for s in (builtin_model("identity"), builtin_model("f2_proper")):
            w = build_comma_web(s)
            pool += [
                w.arrow_base.category,
                w.comma_main.category,
                w.comma_probe.category,
                w.comma_inter.category,
            ]
        for cat in pool:
            assert validate_category(cat).ok, cat.name
        for size in range(4):
            mat = materialize_nullity_category(f"m{size}", [FiniteSet(tuple("abc"[:size]))])
            assert validate_category(mat.category).ok, size

        # All mutation targets are thin, so a redirected entry always breaks
        # an endpoint or unit law and must be reported.
        targets = [chain, divisors, power_set_preorder("Pm", ("a", "b")), arrows.category, fiber]
        for seed in range(10):
            rng = random.Random(seed)
            broken = mutated(targets[seed % len(targets)], rng)
            assert not validate_category(broken).ok, seed


def builtin_categories(max_objects=8):
    seen = {}
    for name in BUILTIN_NAMES:
        s = builtin_model(name)
        for cat in (s.base, s.inter, s.main):
            if len(cat.objects) <= max_objects:
                seen.setdefault(cat.name, cat)
    return list(seen.values())


def test_ac2_points_comma_and_marginal_squares():
    with criterion("AC-2", 10.0, "points comma recovers each category; induced marginals commute"):
        star = terminal_category()
        for C in builtin_categories():
            cm = build_comma(identity_functor(star), bang_functor(C), f"(*|{C.name})")
            assert len(cm.category.objects) == len(C.objects)
            assert len(cm.category.morphisms) == len(C.morphisms)
            inv = functor_inverse(cm.forget2)
            assert inv is not None, C.name
            assert functor_equal(compose_functors(cm.forget2, inv), identity_functor(C))
            assert check_right_inverse(cm.forget2, inv)
        for name in BUILTIN_NAMES:
            s = builtin_model(name)
            w = build_comma_web(s)
            jj = s.jj
            id_b = identity_functor(s.base)
            cases = [
                (
                    w.induced("pi_star"),
                    id_b,
                    identity_functor(s.main),
                    w.comma_main,
                    w.comma_probe,
                ),
                (w.induced("iota1"), id_b, jj, w.arrow_base, w.comma_probe),
                (w.induced("iota2"), id_b, jj, w.arrow_base, w.comma_main),
                (w.induced("iota3"), id_b, s.j2, w.arrow_base, w.comma_inter),
                (w.induced("iota4"), id_b, s.pi, w.comma_probe, w.comma_inter),
                (w.induced("iota5"), id_b, s.j1, w.comma_inter, w.comma_probe),
                (w.induced("iota6"), id_b, s.j1, w.comma_inter, w.comma_main),
                (w.induced("iota7"), id_b, s.pi, w.comma_main, w.comma_inter),
            ]
            for F, I, K, src, dst in cases:
                left = compose_functors(dst.forget1, F)
                right = compose_functors(K, src.forget2)
                assert functor_equal(left, compose_functors(I, src.forget1)), (name, F.name)
                assert functor_equal(compose_functors(dst.forget2, F), right), (name, F.name)


def test_ac3_pipeline_matches_direct_prevalence():
    with criterion("AC-3", 10.0, "Kan pipeline equals the direct prevalence oracle pointwise"):
        for name in BUILTIN_NAMES:
            s = builtin_model(name)
            got = main_null(s)
            want = direct_prevalence(s)
            assert set(got) == set(want)
            for x in got:
                assert got[x].masks == want[x].masks, (name, x)
        trivial = main_null(builtin_model("f2_trivial"))
        assert all(n.masks == {0} for n in trivial.values())
        proper = main_null(builtin_model("f2_proper"))
        assert all(n.masks == proper_nullity(n.carrier).masks for n in proper.values())


def test_ac4_invariance_and_seeded_counterexample():
    with criterion("AC-4", 5.0, "invariance over all endomorphisms; broken assignment yields a witness"):
        for name in BUILTIN_NAMES:
            assert verify_invariance(builtin_model(name)).ok, name
        rng = random.Random(4)
        s = builtin_model("f2_trivial")
        c = carrier_of(s.gamma, "F2^1")
        elem = c.elements[rng.randrange(c.size)]
        broken = dict(main_null(s))
        broken["F2^1"] = down_closure(c, [c.mask_of([elem])])
        rep = verify_invariance(s, broken)
        assert not rep.ok
        w = rep.violations[0].as_dict()["witness"]
        assert w["object"] == "F2^1"
        assert w["endomorphism"] == "s"
        assert w["null_set"] == "{%s}" % elem
        assert w["image"] != w["null_set"]


def test_ac5_minimality_by_full_enumeration():
    with criterion("AC-5", 60.0, "minimality holds against every functorial testable candidate"):
        rep = verify_minimality(builtin_model("f2_trivial"))
        assert rep.ok
        assert rep.checked == {"candidates": 10, "admissible": 6}
        rep = verify_minimality(builtin_model("identity"))
        assert rep.ok
        assert rep.checked == {"candidates": 5, "admissible": 2}


def test_ac6_extension_recovers_base_on_saturated_models():
    with criterion("AC-6", 10.0, "restriction along j1 j2 returns the base nullity when saturated"):
        for name in ("identity", "f2_proper"):
            s = builtin_model(name)
            rep = verify_extension(s)
            assert rep.ok, name
            assert rep.items["extension_equality"]["status"] == "verified"
            jj = s.jj
            lifted = main_null(s)
            for b in s.base.objects:
                assert lifted[jj.obj_map[b]].masks == s.base_null[b].masks, (name, b)
        rep = verify_extension(builtin_model("identity"))
        assert rep.items["triangle_probe"]["section"] == "induced"
        rep = verify_extension(builtin_model("f2_trivial"))
        assert not rep.hypothesis_met
        assert rep.items["saturation"]["status"] == "unmet"


def test_ac7_fast_kan_path_matches_brute_force(kan_replay, specs_dir):
    with criterion("AC-7", 30.0, "fast fiber path agrees with the universal construction"):
        setups = [builtin_model(name) for name in BUILTIN_NAMES]
        for path in sorted(specs_dir.glob("*.spec")):
            setups.append(to_setup(parse_spec(path.read_text()), path.stem))
        assert len(setups) == 9
        for s in setups:
            replay = kan_replay(s)
            probes = build_comma_web(s).comma_probe.obj_data
            assert replay["probed"] == dict.fromkeys(probes, True), s.name
            assert replay["main"] == dict.fromkeys(s.main.objects, True), s.name


def test_ac8_lemma_suite_and_adjoint_claims():
    with criterion("AC-8", 60.0, "lemmas verified on real instances, vacuity reported; adjoint claims hold"):
        suite = run_lemma_suite(seed=0)
        assert set(suite) == {
            "precompose_invariance",
            "comma_inherits_adjoint",
            "kan_restrict_source",
            "kan_after_composite",
            "kan_square",
        }
        for name, rep in suite.items():
            assert rep["failures"] == [], name
            assert rep["verified"] >= 5, name
            assert rep["vacuous"] >= 1, name
            for row in rep["rows"]:
                if row.get("status") == "vacuous":
                    if "reason" in row:
                        reasons = [row["reason"]]
                    else:
                        reasons = [v["reason"] for v in row.get("vacuous_at", ())]
                    assert reasons and all(reasons), (name, row)
        for model in ("f2_trivial", "f2_proper"):
            adj = check_setup_adjoints(builtin_model(model))
            assert adj["forget2_right_inverse"]["present"], model
            assert adj["iota2_post_right_adjoint"]["present"], model
            assert adj["iota2_post_right_adjoint"]["how"] == "composite", model
            assert adj["forget2_pre_right_adjoint"]["present"], model


def test_ac9_saturation_sweep_is_idempotent():
    with criterion("AC-9", 5.0, "saturation sweep is idempotent; saturation classified correctly"):
        saturated = {}
        for name in BUILTIN_NAMES:
            s = builtin_model(name)
            bar = bar_null(s.gamma_base, s.base_null)
            twice = bar_null(s.gamma_base, bar)
            assert all(twice[x].masks == bar[x].masks for x in bar), name
            items = verify_extension(s).items
            saturated[name] = "saturation" not in items
            if not saturated[name]:
                assert items["saturation"]["status"] == "unmet", name
        assert saturated == {
            "identity": True,
            "f2_trivial": False,
            "f2_proper": True,
            "injections_card_0": False,
            "injections_card_1": False,
            "injections_card_2": False,
        }


def test_ac10_reports_reproducible_and_specs_round_trip(tmp_path, specs_dir, capsys):
    with criterion("AC-10", 5.0, "reports are byte-identical across runs; spec files round-trip"):
        for name in BUILTIN_NAMES:
            blobs = []
            for run in range(2):
                out = tmp_path / f"{name}-{run}.json"
                assert cli_main(["construct", "--model", name, "--json", "--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            capsys.readouterr()
            assert blobs[0] == blobs[1], name
        files = sorted(specs_dir.glob("*.spec"))
        assert files
        for path in files:
            text = path.read_text()
            assert serialize_spec(parse_spec(text)) == text, path.name
