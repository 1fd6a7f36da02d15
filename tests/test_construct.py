"""The full lifting pipeline and the three theorem verifiers."""

import json
import random

import pytest
from test_cli import load_specgen, mutation_corpus

import nullkan.cli
import nullkan.comma
import nullkan.construct
import nullkan.fincat
import nullkan.nullity
from nullkan import lemmas
from nullkan.cli import main
from nullkan.comma import arrow_category
from nullkan.construct import (
    BUILTIN_NAMES,
    INDUCED,
    Setup,
    build_comma_web,
    builtin_model,
    check_assumptions,
    direct_prevalence,
    find_pi_star_section,
    is_testable,
    main_null,
    probe_pushforwards,
    run_pipeline,
    verify_extension,
    verify_invariance,
    verify_minimality,
)
from nullkan.fincat import (
    MAX_VIOLATIONS,
    BudgetExceeded,
    EngineError,
    FinCategory,
    FunctorData,
    chain_preorder,
    discrete_category,
    identity_functor,
)
from nullkan.nullity import bar_null, carrier_functor, carrier_of
from nullkan.order import (
    FiniteSet,
    SetMap,
    down_closure,
    full_nullity,
    proper_nullity,
    trivial_nullity,
)
from nullkan.specfile import parse_spec, to_setup


def test_builtin_names():
    assert "f2_proper" in BUILTIN_NAMES
    assert len(BUILTIN_NAMES) == 6
    with pytest.raises(EngineError, match="unknown builtin"):
        builtin_model("nope")
    with pytest.raises(EngineError):
        builtin_model("injections_card_7")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_assumptions_hold_on_builtins(name):
    assert check_assumptions(builtin_model(name)).ok


def test_identity_model_lifts_proper():
    s = builtin_model("identity")
    n = main_null(s)
    assert n["o"].masks == proper_nullity(carrier_of(s.gamma, "o")).masks


def test_f2_trivial_lifts_trivial_everywhere():
    s = builtin_model("f2_trivial")
    n = main_null(s)
    assert all(v.is_trivial() for v in n.values())


def test_f2_proper_lifts_proper_everywhere():
    s = builtin_model("f2_proper")
    n = main_null(s)
    for V in s.main.objects:
        assert n[V].masks == proper_nullity(carrier_of(s.gamma, V)).masks


def test_injections_lift_full():
    for k in range(3):
        s = builtin_model(f"injections_card_{k}")
        n = main_null(s)
        for V in s.main.objects:
            assert n[V].is_full()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pipeline_matches_direct_prevalence(name):
    s = builtin_model(name)
    fast = main_null(s)
    slow = direct_prevalence(s)
    for V in s.main.objects:
        assert fast[V].masks == slow[V].masks


@pytest.mark.parametrize(
    "name,violations",
    [
        ("identity", 0),
        ("f2_trivial", 4),
        ("f2_proper", 0),
        ("injections_card_0", 722),
        ("injections_card_1", 624),
        ("injections_card_2", 360),
    ],
)
def test_comma_transport_violation_counts(name, violations):
    r = run_pipeline(builtin_model(name))
    assert len(r.comma_violations) == violations
    assert r.invariance.ok


def test_pipeline_cross_check(kan_replay):
    s = builtin_model("f2_proper")
    replay = kan_replay(s)
    assert replay["probed"] == dict.fromkeys(build_comma_web(s).comma_probe.obj_data, True)
    assert replay["main"] == dict.fromkeys(s.main.objects, True)


@pytest.mark.parametrize(
    "name", [*BUILTIN_NAMES, "f2_proper.spec", "f2_proper_model.spec", "idempotent.spec"]
)
def test_kan_counit_and_unit_inclusions(name, specs_dir):
    # Right step's counit: the probed value over a main-comma object is
    # contained in the comma value there.  Left step's unit: each probed
    # value is contained in the main value at its forget2 image.
    if name.endswith(".spec"):
        s = to_setup(parse_spec((specs_dir / name).read_text()), name.removesuffix(".spec"))
    else:
        s = builtin_model(name)
    r = run_pipeline(s)
    web = build_comma_web(s)
    assert r.comma_values.values and r.probed.extension
    for x, v in r.comma_values.values.items():
        assert r.probed.extension[web.induced("pi_star").on_obj(x)].masks <= v.masks, x
    for p, v in r.probed.extension.items():
        assert v.masks <= r.main_null[web.comma_probe.forget2.on_obj(p)].masks, p


def test_comma_web_shapes_and_memoization():
    s = builtin_model("f2_proper")
    w = build_comma_web(s)
    assert len(w.arrow_base.category.objects) == 3
    assert len(w.comma_main.category.objects) == 5
    assert len(w.comma_probe.category.objects) == 3
    assert build_comma_web(s) is w
    for name in ("iota1", "iota2", "iota3", "iota4", "iota5", "iota6", "iota7"):
        assert w.induced(name) is w.induced(name)


def test_comma_web_builds_members_on_first_use(monkeypatch, specs_dir, tmp_path, capsys):
    built = []
    made = {}  # name -> the comma category built under it
    deferred = {}  # name -> whether build_comma returned it without rows
    real = nullkan.comma.build_comma

    def counting(alpha, beta, name=None):
        built.append(name)
        deferred[name] = False  # kept when the build raises
        made[name] = real(alpha, beta, name)
        deferred[name] = "_rows" not in vars(made[name].category)
        return made[name]

    def composed():
        """The comma categories built so far that have built their rows."""
        return sorted(n for n, cc in made.items() if "_rows" in vars(cc.category))

    monkeypatch.setattr(nullkan.construct, "build_comma", counting)
    s = builtin_model("f2_proper")
    run_pipeline(s)
    assert built == ["(j1j2|M)", "(j2|pi)"]
    built.clear()
    verify_extension(s)
    web = {"(j1j2|M)", "(j2|pi)", "Arr(F2-linear)", "(j2|I)"}
    assert sorted(n for n in built if n in web) == ["(j2|I)", "Arr(F2-linear)"]
    # A4 reads iota3 alone, so validate and check ext (whose hypothesis
    # f2_trivial misses) build only its two comma categories.
    for argv in (["validate"], ["check", "ext"]):
        built.clear()
        main([*argv, "--model", "f2_trivial", "--json"])
        assert sorted(built) == ["(j2|I)", "Arr(F2-linear)"], argv

    # The lift and its verifiers read objects, morphisms, forgetful functors
    # and fibers, and compose in no member, so no member builds its rows.
    sg = load_specgen()
    monoid = sorted(sg._closure([(0, 0, 1), (0, 0, 2), (2, 1, 0)]))
    text = sg.spec_text(monoid, sg.base_family(random.Random(0), monoid))
    m17 = to_setup(parse_spec(text), "m17")
    assert len(m17.main.morphisms) == 17
    for s in (builtin_model("injections_card_0"), m17):
        made.clear()
        deferred.clear()
        run_pipeline(s)
        verify_minimality(s)
        direct_prevalence(s)
        assert deferred == {"(j1j2|M)": True, "(j2|pi)": True}, s.name
        assert composed() == [], s.name
    # materialize validates every member, which reads the whole table;
    # check lemmas composes in three through its section and adjoint
    # searches, each composite from the legs of the two squares.
    made.clear()
    main(["materialize", "--model", "f2_proper", "--json"])
    assert composed() == sorted(web)
    for model in ("f2_proper", "injections_card_0", "injections_card_1", "injections_card_2"):
        made.clear()
        main(["check", "lemmas", "--model", model, "--json"])
        assert len(made) == 4 and composed() == [], model
    capsys.readouterr()

    # A compose line pointed elsewhere fails the member's cospan check, so
    # the member is built at once and refused by naming the broken square.
    text, partial = mutation_corpus(specs_dir)[1]
    assert not partial
    spec = tmp_path / "variant.spec"
    spec.write_text(text)
    deferred.clear()
    assert main(["construct", "--spec", str(spec), "--json"]) == 2
    assert capsys.readouterr().err == (
        "error: (j1j2|M): [A0;s](F2^0;T0;F2^1)>(F2^1;s;F2^1) after "
        "[id:F2^0;T0](F2^0;id:F2^0;F2^0)>(F2^0;T0;F2^1) is not a commuting square\n"
    )
    assert deferred == {"(j1j2|M)": False}


def test_deferred_rows_are_the_rows_built_at_once(specs_dir):
    setups = [builtin_model(name) for name in BUILTIN_NAMES]
    setups += [to_setup(parse_spec(p.read_text()), p.stem) for p in sorted(specs_dir.glob("*.spec"))]
    setups += [to_setup(parse_spec(t), "seed3") for t in load_specgen().generate(3, 2)]
    commas = [
        (s.name, getattr(build_comma_web(s), member))
        for s in setups
        for member in ("arrow_base", "comma_main", "comma_probe", "comma_inter")
    ]
    # Beyond the web: the gamma square of `check ext`, a slice of the lemma
    # suite and an arrow category defer their rows too.
    s = builtin_model("f2_proper")
    gamma = nullkan.comma.build_comma(s.gamma_base, s.gamma, "(gamma.j1j2|gamma)")
    commas.append(("gamma", gamma))
    x3, y2 = chain_preorder("x", "abc"), chain_preorder("y", "ab")
    onto = lemmas.thin_functor("f", x3, y2, {"a": "a", "b": "a", "c": "b"})
    commas.append(("slice", lemmas._slice(onto, "b", "colim")[0]))
    commas.append(("arrows", arrow_category(chain_preorder("c3", "abc"))))
    for where, cc in commas:
        cat = cc.category
        assert "_rows" not in vars(cat), (where, cat.name)
        at_once = nullkan.comma.build_comma(cc.left, cc.right, cat.name).category
        at_once._rows  # built now, as for a cospan that fails its check
        # Before its rows exist, the category composes from the legs, and
        # every composite is the entry of the rows built at once.
        legs = {(g, f): cat.compose(g, f) for g, f in cat.composable_pairs()}
        assert "_rows" not in vars(cat), (where, cat.name)
        assert legs == dict(at_once.composition.items()), (where, cat.name)
        assert cat.same_table(at_once), (where, cat.name)
        # The row-shape check of from_rows runs on deferred rows too.
        args = (cat.name, cat.objects, cat.morphisms, cat.identity)
        short = FinCategory.from_rows(*args, lambda rows=at_once._rows[:-1]: rows)
        with pytest.raises(EngineError, match="do not match the in-lists"):
            short.compose(*next(iter(cat.composition)))


@pytest.mark.parametrize("model", ["injections_card_0", "f2_proper"])
def test_induced_functors_name_each_square_by_the_target_string(model):
    # An induced functor maps each square by index and keeps the target
    # category's own name string, so the web's functors copy no name.
    web = build_comma_web(builtin_model(model))
    mapped = []
    for name in INDUCED:
        try:
            F = web.induced(name)
        except EngineError:
            continue  # pi_star_section's right square fails on f2_proper
        names = F.target._names
        for image in F.mor_map.values():
            assert image is names[F.target._index[image]], (name, image)
        mapped.append(name)
    assert len(mapped) == {"injections_card_0": 9, "f2_proper": 8}[model]


def test_materialize_validates_injections_once(monkeypatch):
    # The certificate of each comma category and the web's setup check read
    # the report that `validated` keeps; `validate` reports that same one.
    seen = []
    real = nullkan.fincat.validate_category

    def counting(cat):
        seen.append(cat.name)
        return real(cat)

    monkeypatch.setattr(nullkan.fincat, "validate_category", counting)
    monkeypatch.setattr(nullkan.cli, "validate_category", counting)
    for command in ("materialize", "validate"):
        seen.clear()
        assert main([command, "--model", "injections_card_0", "--json"]) == 0, command
        assert seen.count("injections") == 1, command


@pytest.mark.parametrize("model", ["injections_card_0", "f2_proper"])
def test_setup_functors_and_base_action_are_derived_once(model, monkeypatch, capsys):
    # A1, the saturation gate and `build_comma` read the report `checked`
    # keeps on each functor; A2 and the gate the setup's kept base action,
    # which maps into gamma's Set category, the one Set category built.
    seen, set_categories, setups = [], [], []
    real_check, real_set = nullkan.fincat.check_functor, nullkan.nullity.set_category

    def counting_check(F):
        seen.append(F)
        return real_check(F)

    def counting_set(name, *args):
        set_categories.append(name)
        return real_set(name, *args)

    def kept_model(name):
        setups.append(builtin_model(name))
        return setups[-1]

    monkeypatch.setattr(nullkan.fincat, "check_functor", counting_check)
    monkeypatch.setattr(nullkan.nullity, "set_category", counting_set)
    monkeypatch.setattr(nullkan.cli, "builtin_model", kept_model)
    for argv in (["validate"], ["check", "ext"]):
        seen.clear()
        set_categories.clear()
        main([*argv, "--model", model, "--json"])
        # Counted by identity, on the setup the command ran: j2, j1 and pi
        # may share a name with the identity functors of the web's cospans.
        s = setups[-1]
        assert [sum(G is F for G in seen) for F in (s.j2, s.j1, s.pi)] == [1, 1, 1], argv
        assert set_categories == ["Set[gamma]"], argv
    capsys.readouterr()


def test_retraction_triangle_keeps_the_first_witnesses():
    # pi sends all 30 objects of a discrete category to x0: 29 objects and
    # 29 identities break pi . j1 = Id_I, and A3 keeps the first 20.
    inter = discrete_category("D30", [f"x{i}" for i in range(30)])
    ident = identity_functor(inter)
    pi = FunctorData(
        "pi",
        inter,
        inter,
        dict.fromkeys(inter.objects, "x0"),
        dict.fromkeys(ident.mor_map, "id:x0"),
    )
    c = FiniteSet(("a",))
    gamma = carrier_functor(
        "gamma",
        inter,
        dict.fromkeys(inter.objects, c),
        {m: SetMap(c, c, (0,)) for m in ident.mor_map},
    )
    base = dict.fromkeys(inter.objects, proper_nullity(c))
    s = Setup("d30", inter, inter, inter, ident, ident, pi, gamma, base)
    rep = check_assumptions(s)
    assert rep.checked["A3"] == 60
    triangle = [dict(v.witness) for v in rep.violations if v.law == "A3-triangle"]
    assert len(triangle) == MAX_VIOLATIONS == 20
    assert triangle == [{"object": f"x{i}", "image": "x0"} for i in range(1, 21)]


# pi . j1 != Id_I (pi sends e to the identity) while pi . j1 . j2 = j2.
A3_ONLY = """version: 1

category B
  object o
  morphism id:o o o
  identity o id:o
end

category P
  object o
  morphism id:o o o
  morphism e o o
  identity o id:o
  compose e e e
end

functor incl B P
  obj o o
end

functor idP P P
  obj o o
  mor e e
end

functor crush P P
  obj o o
  mor e id:o
end

carriers gam P
  carrier o x0 x1
  map e x0>x0 x1>x0
end

nullity n0
  carrier x0 x1
end

setup
  base B
  inter P
  main P
  j2 incl
  j1 idP
  pi crush
  gamma gam
  basenull o n0
end
"""


def test_broken_retraction_is_reported_not_raised(tmp_path, capsys):
    spec = tmp_path / "a3.spec"
    spec.write_text(A3_ONLY)
    assert main(["validate", "--spec", str(spec), "--json"]) == 1
    laws = [v["law"] for v in json.loads(capsys.readouterr().out)["assumptions"]["violations"]]
    assert laws == ["A3-triangle"]
    # Nothing check lemmas reads needs pi . j1 = Id_I, so it reports.
    assert main(["check", "lemmas", "--spec", str(spec), "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["status"] in ("pass", "fail")


@pytest.mark.parametrize(
    "broken,detail",
    [
        # With pi = Id_P, A3 holds, but iota3 sends the one object of
        # Arr(B) into (incl|P), which has two: id:o and e.
        ("", "no iota3_rstar supplied or derivable"),
        # Without e after e, (incl|P) cannot be built at all.
        ("  compose e e e\n", "P: composition table has no entry for ('e', 'e')"),
    ],
    ids=["not-invertible", "partial-table"],
)
def test_iota3_without_inverse_is_reported(broken, detail, tmp_path, capsys):
    spec = tmp_path / "a4.spec"
    spec.write_text(A3_ONLY.replace("  pi crush", "  pi idP").replace(broken, ""))
    assert main(["validate", "--spec", str(spec), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["assumptions"]["violations"] == [
        {"law": "A4-missing", "witness": {"detail": detail}}
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_invariance_on_builtins(name):
    assert verify_invariance(builtin_model(name)).ok


def test_invariance_catches_broken_assignment():
    s = builtin_model("f2_trivial")
    computed = main_null(s)
    c = carrier_of(s.gamma, "F2^1")
    broken = dict(computed)
    broken["F2^1"] = down_closure(c, [c.mask_of(["0"])])
    rep = verify_invariance(s, broken)
    assert not rep.ok
    w = rep.violations[0].as_dict()["witness"]
    assert w["object"] == "F2^1"
    assert w["endomorphism"] == "s"
    assert w["null_set"] == "{0}"
    assert w["image"] == "{1}"


def test_invariance_refuses_an_assignment_on_the_wrong_carrier():
    s = builtin_model("f2_trivial")
    wrong = dict(main_null(s))
    wrong["F2^1"] = proper_nullity(FiniteSet(("0", "1", "2")))
    with pytest.raises(EngineError, match="carrier"):
        verify_invariance(s, wrong)


def test_saturation_of_builtins():
    status = {
        name: verify_extension(builtin_model(name)).items.get("saturation", {}).get("status")
        for name in BUILTIN_NAMES
    }
    assert status == {
        "identity": None,
        "f2_trivial": "unmet",
        "f2_proper": None,
        "injections_card_0": "unmet",
        "injections_card_1": "unmet",
        "injections_card_2": "unmet",
    }


def test_bar_closure_on_f2_trivial():
    s = builtin_model("f2_trivial")
    bar = bar_null(s.gamma_base, s.base_null)
    assert bar["F2^0"].is_trivial()
    assert bar["F2^1"].sorted_labels() == ["{}", "{1}"]


def test_minimality_on_covered_models():
    rep = verify_minimality(builtin_model("f2_trivial"))
    assert rep.ok
    assert rep.checked == {"candidates": 10, "admissible": 6}
    rep = verify_minimality(builtin_model("identity"))
    assert rep.ok
    assert rep.checked == {"candidates": 5, "admissible": 2}
    # Stopped at the last violation kept: the candidates are counted up to
    # its place in the product of the family counts (1 * 2 * 5 * 20).
    rep = verify_minimality(builtin_model("injections_card_0"))
    assert len(rep.violations) == MAX_VIOLATIONS
    assert rep.checked == {"candidates": 171, "admissible": 20}


def test_minimality_search_fits_its_own_budget():
    # A 4-point object, a 3-point one and 62 empty ones: 167 * 19 candidate
    # assignments, and more than DEFAULT_BUDGET steps to enumerate them.
    objs = ["A", "B"] + [f"E{i}" for i in range(62)]
    carrier = {"A": " a0 a1 a2 a3", "B": " b0 b1 b2"}
    lines = ["version: 1", "category W", *(f"object {o}" for o in objs)]
    lines += [f"morphism id:{o} {o} {o}\nidentity {o} id:{o}" for o in objs]
    lines += ["end", "functor idW W W", *(f"obj {o} {o}" for o in objs), "end"]
    lines += ["carriers g W", *(f"carrier {o}{carrier.get(o, '')}" for o in objs), "end"]
    lines += [f"nullity n{o}\ncarrier{carrier.get(o, '')}\nend" for o in objs]
    lines += ["setup", "base W", "inter W", "main W", "j2 idW", "j1 idW", "pi idW", "gamma g"]
    lines += [*(f"basenull {o} n{o}" for o in objs), "end"]
    rep = verify_minimality(to_setup(parse_spec("\n".join(lines) + "\n"), "wide"))
    assert rep.ok
    assert rep.checked == {"candidates": 3173, "admissible": 3173}


def test_minimality_guard(monkeypatch):
    monkeypatch.setattr(nullkan.construct, "MINIMALITY_GUARD", 4)
    with pytest.raises(BudgetExceeded):
        verify_minimality(builtin_model("f2_trivial"))


def test_minimality_reports_smaller_candidate(idempotent_setup):
    rep = verify_minimality(idempotent_setup)
    assert not rep.ok
    w = rep.violations[0].as_dict()["witness"]
    assert w["object"] == "P0"
    assert w["null_set"] == "{u}"


def test_testability():
    s = builtin_model("f2_proper")
    n = main_null(s)
    pushed = {V: probe_pushforwards(s, V) for V in s.main.objects}
    assert is_testable(pushed["F2^0"], n["F2^0"].masks)
    assert is_testable(pushed["F2^1"], n["F2^1"].masks)
    assert is_testable(pushed["F2^1"], full_nullity(carrier_of(s.gamma, "F2^1")).masks)
    assert is_testable(pushed["F2^0"], trivial_nullity(carrier_of(s.gamma, "F2^0")).masks)


def test_extension_on_identity_model():
    rep = verify_extension(builtin_model("identity"))
    assert rep.ok and rep.hypothesis_met
    assert all(v["status"] == "verified" for v in rep.items.values())
    assert rep.items["triangle_probe"]["section"] == "induced"


def test_extension_on_f2_proper_skips_blue_triangle():
    rep = verify_extension(builtin_model("f2_proper"))
    assert rep.ok and rep.hypothesis_met
    probe = rep.items["triangle_probe"]
    assert probe["status"] == "skipped"
    assert "no right inverse" in probe["reason"]
    assert rep.items["extension_equality"]["status"] == "verified"


def test_extension_hypothesis_unmet_on_f2_trivial():
    rep = verify_extension(builtin_model("f2_trivial"))
    assert not rep.hypothesis_met
    assert not rep.ok
    sat = rep.items["saturation"]
    assert sat["status"] == "unmet"
    assert sat["witness_object"] == "F2^1"
    assert sat["bar"] == ["{}", "{1}"]
    assert sat["base"] == ["{}"]


def test_pi_star_section_search():
    got, how = find_pi_star_section(builtin_model("identity"))
    assert got is not None and how == "induced"
    got, how = find_pi_star_section(builtin_model("f2_proper"))
    assert got is None and how == "absent"
