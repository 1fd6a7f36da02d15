"""The integer composition table of FinCategory and its name views.

The rows hold the table, as int16 arrays; `composition` is a read-only
mapping computed from them.  These tests pin the name views of the
builders' categories, check that every builder keeps int16 rows and that
no category passes the int16 bound, round-trip every table through a dict,
keep loose entries in their given order and check the row sweep against a
sweep over the name dict.
"""

import functools
import hashlib
import random
from array import array

import pytest

import nullkan.fincat
from nullkan.cli import main
from nullkan.comma import arrow_category, build_comma
from nullkan.construct import build_comma_web, builtin_model
from nullkan.fincat import (
    MAX_MORPHISMS,
    EngineError,
    FinCategory,
    FunctorData,
    Mor,
    chain_preorder,
    discrete_category,
    opposite,
    power_set_preorder,
    validate_category,
    validated,
)
from nullkan.nullity import materialize_nullity_category, set_category
from nullkan.order import FiniteSet

# (entries, sha256 prefix of sorted(cat.composition.items()), one
# "g<TAB>f<TAB>gf" line per entry), taken while composition was a dict.
VIEW_PINS = {
    ("identity", "arrow_base"): (32, "b3555a3724066bfe"),
    ("identity", "comma_main"): (32, "b3555a3724066bfe"),
    ("identity", "comma_probe"): (32, "b3555a3724066bfe"),
    ("identity", "comma_inter"): (32, "b3555a3724066bfe"),
    ("f2_trivial", "arrow_base"): (10, "ffa277a6e2fbb68b"),
    ("f2_trivial", "comma_main"): (49, "9c9935336b037440"),
    ("f2_trivial", "comma_probe"): (33, "4d1f898f95fbfd66"),
    ("f2_trivial", "comma_inter"): (10, "ffa277a6e2fbb68b"),
    ("f2_proper", "arrow_base"): (10, "ffa277a6e2fbb68b"),
    ("f2_proper", "comma_main"): (49, "9c9935336b037440"),
    ("f2_proper", "comma_probe"): (33, "4d1f898f95fbfd66"),
    ("f2_proper", "comma_inter"): (10, "ffa277a6e2fbb68b"),
    ("injections_card_0", "arrow_base"): (54668, "924a59386930949c"),
    ("injections_card_0", "comma_main"): (54668, "924a59386930949c"),
    ("injections_card_0", "comma_probe"): (54668, "924a59386930949c"),
    ("injections_card_0", "comma_inter"): (54668, "924a59386930949c"),
    ("injections_card_1", "arrow_base"): (54668, "924a59386930949c"),
    ("injections_card_1", "comma_main"): (54668, "924a59386930949c"),
    ("injections_card_1", "comma_probe"): (54668, "924a59386930949c"),
    ("injections_card_1", "comma_inter"): (54668, "924a59386930949c"),
    ("injections_card_2", "arrow_base"): (54668, "924a59386930949c"),
    ("injections_card_2", "comma_main"): (54668, "924a59386930949c"),
    ("injections_card_2", "comma_probe"): (54668, "924a59386930949c"),
    ("injections_card_2", "comma_inter"): (54668, "924a59386930949c"),
    ("materialized", "sizes 0-2"): (1096, "e148daee7ee37aae"),
    ("materialized", "sizes 0-3"): (1420123, "7cacaf13cb6b7a8c"),
    ("identity", "base"): (4, "c6d41b36fcaf8da8"),
    ("identity", "main"): (4, "c6d41b36fcaf8da8"),
    ("identity", "gamma target"): (16, "1658efe04cbe84c8"),
    ("f2_trivial", "base"): (4, "79a5b4ed13bd2b59"),
    ("f2_trivial", "main"): (11, "74f21d03bf71e55a"),
    ("f2_trivial", "gamma target"): (36, "621c5b9385ae0a36"),
    ("f2_proper", "base"): (4, "79a5b4ed13bd2b59"),
    ("f2_proper", "main"): (11, "74f21d03bf71e55a"),
    ("f2_proper", "gamma target"): (36, "621c5b9385ae0a36"),
    ("injections_card_0", "base"): (152, "486a9c5fb48c6285"),
    ("injections_card_0", "main"): (152, "486a9c5fb48c6285"),
    ("injections_card_0", "gamma target"): (1678, "f326ce323e88b4bd"),
    ("injections_card_1", "base"): (152, "486a9c5fb48c6285"),
    ("injections_card_1", "main"): (152, "486a9c5fb48c6285"),
    ("injections_card_1", "gamma target"): (1678, "f326ce323e88b4bd"),
    ("injections_card_2", "base"): (152, "486a9c5fb48c6285"),
    ("injections_card_2", "main"): (152, "486a9c5fb48c6285"),
    ("injections_card_2", "gamma target"): (1678, "f326ce323e88b4bd"),
}


@functools.lru_cache(maxsize=None)
def pinned_category(source: str, member: str) -> FinCategory:
    if source == "materialized":
        top = int(member[-1])
        carriers = [FiniteSet(tuple("abc"[:k])) for k in range(top + 1)]
        return materialize_nullity_category("m", carriers).category
    s = builtin_model(source)
    if member == "gamma target":
        return s.gamma.target
    if member in ("base", "main"):
        return getattr(s, member)
    return getattr(build_comma_web(s), member).category


def view_digest(cat: FinCategory) -> str:
    h = hashlib.sha256()
    for (g, f), gf in sorted(cat.composition.items()):
        h.update(f"{g}\t{f}\t{gf}\n".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("source,member", sorted(VIEW_PINS))
def test_composition_view_is_pinned(source, member):
    cat = pinned_category(source, member)
    n, digest = VIEW_PINS[source, member]
    assert len(cat.composition) == n
    assert view_digest(cat) == digest


def arrows_of_c3(checks: bool) -> FinCategory:
    """Arr(c3), as the comma category of c3's inclusion into a target that,
    unless `checks`, also holds the monoid `z3_bad`.  The cospan then fails
    its check, so `build_comma` builds the rows at once; they are the same
    rows, as no square reaches the monoid."""
    c3 = chain_preorder("c3", "abc")
    target, z3 = c3, z3_bad()
    if not checks:
        target = FinCategory(
            "c3+Z3-bad",
            c3.objects + z3.objects,
            c3.morphisms + z3.morphisms,
            {**c3.identity, **z3.identity},
            {**c3.composition, **z3.composition},
        )
    i = FunctorData("i", c3, target, {x: x for x in c3.objects}, {m: m for m in c3._names})
    assert validated(target).ok == checks
    return build_comma(i, i, "Arr(c3)").category


def deferred_c2() -> FinCategory:
    c2 = chain_preorder("c2", ["y0", "y1"])
    return FinCategory.from_rows(
        "c2", c2.objects, c2.morphisms, dict(c2.identity), lambda: c2._rows
    )


# Each builder of a FinCategory; "deferred" ones build their rows on the
# first read.
BUILDERS = {
    "FinCategory": lambda: discrete_category("d", "xy"),
    "from_rows deferred": deferred_c2,
    "build_preorder": lambda: power_set_preorder("p2", "ab"),
    "opposite": lambda: opposite(chain_preorder("c3", "abc")),
    "build_comma": lambda: arrows_of_c3(checks=False),
    "build_comma deferred": lambda: arrows_of_c3(checks=True),
    "comma web deferred": lambda: build_comma_web(builtin_model("f2_proper")).comma_main.category,
    "set_category": lambda: set_category("Set", [FiniteSet(("a", "b")), FiniteSet(("c",))])[0],
    "injections": lambda: builtin_model("injections_card_0").main,
    "materialized": lambda: pinned_category("materialized", "sizes 0-2"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_keeps_int16_rows(name):
    cat = BUILDERS[name]()
    assert ("_rows" not in vars(cat)) == name.endswith("deferred")
    assert {(type(r), r.typecode) for r in cat._rows} == {(array, "h")}
    assert "_rows" in vars(cat)
    assert validate_category(cat).ok


def test_frame_refuses_the_32768th_morphism(monkeypatch, capsys):
    assert MAX_MORPHISMS == 2**15 - 1
    mors = [Mor(f"m{i}", "x", "x") for i in range(MAX_MORPHISMS + 1)]

    def no_rows():
        raise AssertionError("a row was built")

    class NoTable(dict):
        def items(self):
            raise AssertionError("a row was built")

    FinCategory.from_rows("edge", ("x",), mors[:-1], {"x": "m0"}, no_rows)
    refused = "^big: 32768 morphisms exceed bound 32767$"
    with pytest.raises(EngineError, match=refused):
        FinCategory.from_rows("big", ("x",), mors, {"x": "m0"}, no_rows)
    with pytest.raises(EngineError, match=refused):
        FinCategory("big", ("x",), mors, {"x": "m0"}, NoTable())

    # No input gets past the bounds where it is read, so the bound is
    # lowered below the 6,249 morphisms of the category `materialize`
    # builds: the CLI reports the refusal as bad input.
    monkeypatch.setattr(nullkan.fincat, "MAX_MORPHISMS", 6248)
    assert main(["materialize", "--model", "injections_card_0", "--json"]) == 2
    assert capsys.readouterr().err == (
        "error: Null[injections_card_0]: 6249 morphisms exceed bound 6248\n"
    )


def rebuilt(cat: FinCategory, composition) -> FinCategory:
    return FinCategory(cat.name, cat.objects, cat.morphisms, dict(cat.identity), composition)


def z3_bad() -> FinCategory:
    rs = ["r0", "r1", "r2"]
    comp = {(rs[i], rs[j]): rs[(i + j) % 3] for i in range(3) for j in range(3)}
    comp["r1", "r1"] = "r1"
    return FinCategory("Z3-bad", ("*",), [(r, "*", "*") for r in rs], {"*": "r0"}, comp)


ROUND_TRIP = {
    "chain": lambda: chain_preorder("c4", "abcd"),
    "arrows": lambda: arrow_category(chain_preorder("c3", "abc")).category,
    "z3-bad": z3_bad,
    "f2-main": lambda: builtin_model("f2_proper").main,
    "injections-main": lambda: builtin_model("injections_card_0").main,
    "f2-comma-probe": lambda: build_comma_web(builtin_model("f2_proper")).comma_probe.category,
    "materialized-2": lambda: pinned_category("materialized", "sizes 0-2"),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
@pytest.mark.parametrize("mutate", [False, True], ids=["plain", "mutated"])
def test_composition_round_trips_through_a_dict(name, mutate):
    cat = ROUND_TRIP[name]()
    if mutate:
        # Redirect one entry: the table then comes through the dict path.
        rng = random.Random(name)
        comp = dict(cat.composition)
        key = sorted(comp)[rng.randrange(len(comp))]
        comp[key] = rng.choice([m.name for m in cat.morphisms])
        cat = rebuilt(cat, comp)
        assert cat.composition[key] == comp[key]
    again = rebuilt(cat, dict(cat.composition))
    assert again.same_table(cat)
    assert again.composition == cat.composition
    assert dict(again.composition) == dict(cat.composition)
    assert validate_category(again).as_dict() == validate_category(cat).as_dict()


def test_composition_view_reads_like_a_dict():
    cat = chain_preorder("c3", ["x0", "x1", "x2"])
    view = cat.composition
    assert len(view) == 10 == len(list(view)) == len(view.items())
    assert view["le:x1>x2", "le:x0>x1"] == "le:x0>x2"
    assert ("le:x1>x2", "le:x0>x1") in view
    assert ("le:x0>x1", "le:x1>x2") not in view
    assert view.get(("nope", "le:x0>x0")) is None
    with pytest.raises(KeyError):
        view["le:x0>x1", "le:x0>x1"]
    assert view == dict(view.items()) and view != {}
    with pytest.raises(TypeError):
        view["le:x0>x0", "le:x0>x0"] = "le:x0>x0"


def test_loose_entries_keep_their_given_order():
    """Entries that are not composable, or whose composite has the wrong
    endpoints, are reported in the order the table gives them, not in row
    order: a spec file's compose lines set that order."""
    c3 = chain_preorder("c3", ["x0", "x1", "x2"])
    loose = {
        ("le:x1>x2", "le:x0>x1"): "le:x0>x1",  # wrong endpoints, later row
        ("le:x0>x0", "le:x1>x2"): "le:x0>x0",  # not composable
        ("le:x1>x1", "le:x0>x1"): "le:x1>x2",  # wrong endpoints, earlier row
        ("le:x0>x1", "le:x0>x1"): "le:x0>x1",  # not composable
    }
    comp = {**loose, **{k: h for k, h in c3.composition.items() if k not in loose}}
    broken = rebuilt(c3, comp)
    assert list(broken.composition.items())[-4:] == list(loose.items())
    assert broken.compose("le:x1>x1", "le:x0>x1") == "le:x1>x2"
    got = [(v.law, dict(v.witness)) for v in validate_category(broken).violations]
    assert got[:4] == [
        ("composition-spurious", {"g": "le:x0>x0", "f": "le:x1>x2"}),
        ("composition-spurious", {"g": "le:x0>x1", "f": "le:x0>x1"}),
        ("composition-endpoints", {"g": "le:x1>x2", "f": "le:x0>x1", "composite": "le:x0>x1"}),
        ("composition-endpoints", {"g": "le:x1>x1", "f": "le:x0>x1", "composite": "le:x1>x2"}),
    ]


def test_from_rows_checks_the_row_shapes():
    c2 = chain_preorder("c2", ["y0", "y1"])
    args = ("r", c2.objects, c2.morphisms, dict(c2.identity))
    rows = [array("h", r) for r in c2._rows]
    assert FinCategory.from_rows(*args, rows).same_table(c2)
    with pytest.raises(EngineError, match="do not match the in-lists"):
        FinCategory.from_rows(*args, rows[:-1])
    with pytest.raises(EngineError, match="do not match the in-lists"):
        FinCategory.from_rows(*args, [r + array("h", [0]) for r in rows])
    for other in ([r.tolist() for r in rows], [array("i", r) for r in rows]):
        with pytest.raises(EngineError, match="are not int16 arrays"):
            FinCategory.from_rows(*args, other)
    # A row entry with the wrong endpoints (le:y1>y1 after le:y0>y1 sent
    # to le:y0>y0) is composed as given and reported by validation.
    bent = FinCategory.from_rows(*args, [rows[0], rows[1], array("h", [0, 2])])
    assert bent.compose("le:y1>y1", "le:y0>y1") == "le:y0>y0"
    first = validate_category(bent).violations[0]
    assert (first.law, dict(first.witness)) == (
        "composition-endpoints",
        {"g": "le:y1>y1", "f": "le:y0>y1", "composite": "le:y0>y0"},
    )


def reference_sweep(cat: FinCategory, limit: int):
    """The associativity sweep over the name dict, as it was written before
    the rows: triples whose gf and hg have the right endpoints, failures
    ordered by the index of dom(h), then of h, g and f."""
    def fits(key, gf):
        g, f = key
        return (cat.cod(f), cat.dom(gf), cat.cod(gf)) == (cat.dom(g), cat.dom(f), cat.cod(g))

    table = {k: gf for k, gf in cat.composition.items() if fits(k, gf)}
    order = {x: i for i, x in enumerate(cat.objects)}
    total, bad = 0, []
    for h in sorted(cat.morphisms, key=lambda m: order[m.dom]):
        for g in (m.name for m in cat.morphisms if m.cod == h.dom):
            hg = table.get((h.name, g))
            if hg is None:
                continue
            for f in (m.name for m in cat.morphisms if m.cod == cat.dom(g)):
                gf = table.get((g, f))
                if gf is None:
                    continue
                total += 1
                if table.get((h.name, gf)) != table.get((hg, f)):
                    bad.append((h.name, g, f))
    return total, bad[:limit]


@pytest.mark.parametrize("seed", range(12))
def test_row_sweep_matches_the_name_sweep(seed, monkeypatch):
    rng = random.Random(seed)
    base = [
        z3_bad(),
        chain_preorder("c4", "abcd"),
        arrow_category(chain_preorder("c3", "abc")).category,
    ][seed % 3]
    comp = dict(base.composition)
    keys = sorted(comp)
    names = [m.name for m in base.morphisms]
    for key in rng.sample(keys, 1 + seed % 3):
        comp[key] = rng.choice(names)
    for key in rng.sample(keys, seed % 2):
        del comp[key]
    cat = rebuilt(base, comp)
    monkeypatch.setattr(nullkan.fincat, "MAX_VIOLATIONS", 50)
    rep = validate_category(cat)
    others = [v for v in rep.violations if v.law != "associativity"]
    found = [
        (w["h"], w["g"], w["f"])
        for w in (dict(v.witness) for v in rep.violations if v.law == "associativity")
    ]
    total, bad = reference_sweep(cat, 50 - len(others))
    assert rep.checked["associativity"] == total
    assert found == bad
