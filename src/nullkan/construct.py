"""The end-to-end nullity construction pipeline and its verifiers.

A Setup is a cospan-with-retraction of finite categories

    B --j2--> I --j1--> M,   pi: M -> I,   pi . j1 = Id_I,

a carrier action gamma on M, and a base nullity assignment on B.  The
pipeline materializes the comma category of (j1 j2, M), reads off the
preimage nullity at every comma object, takes a right Kan extension along
the projection-induced functor onto the probe comma category of (j2, pi),
and a left Kan extension along that category's second forgetful functor
down to M.  An independent oracle recomputes the result with plain set
loops, and the theorem verifiers (invariance, minimality, extension) are
exhaustive searches over the same finite data.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple

from .comma import (
    CommaCategory,
    arrow_category,
    build_comma,
    check_right_inverse,
    functor_inverse,
    induced_comma_functor,
)
from .fincat import (
    DEFAULT_BUDGET,
    MAX_VIOLATIONS,
    BudgetExceeded,
    EngineError,
    FinCategory,
    FunctorData,
    ValidationReport,
    Violation,
    _violation,
    check_functor,
    compose_functors,
    find_section,
    functor_equal,
    identity_functor,
)
from .kan import KanResult, NullityDiagram, left_kan, right_kan
from .nullity import (
    _admitted_maps,
    _maps_category,
    bar_null as _bar_null,
    base_nullity,
    carrier_functor,
    carrier_of,
    check_carrier_action,
    check_nullity_assignment,
    is_saturated as _is_saturated,
    setmap_of,
    transports_of,
)
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    all_down_sets,
    failed_transports,
    intersect_all,
    masks_on,
    preimage_nullity,
    proper_nullity,
    pushforward_closure,
    union_all,
)

MINIMALITY_GUARD = 1 << 12


class Setup:
    """A base, intermediate and main category, the functors j2: B -> I,
    j1: I -> M and pi: M -> I, the carriers gamma on M and the null
    families on B; `_web` keeps the comma web once built."""

    def __init__(
        self,
        name: str,
        base: FinCategory,
        inter: FinCategory,
        main: FinCategory,
        j2: FunctorData,
        j1: FunctorData,
        pi: FunctorData,
        gamma: FunctorData,
        base_null: dict[str, NullityStructure],
    ):
        self.name, self.base, self.inter, self.main = name, base, inter, main
        self.j2, self.j1, self.pi, self.gamma = j2, j1, pi, gamma
        self.base_null = base_null
        self._web: CommaWeb | None = None


def j1j2(s: Setup) -> FunctorData:
    return compose_functors(s.j1, s.j2, name="j1j2")


def pullback_carrier(gamma: FunctorData, F: FunctorData, name: str) -> FunctorData:
    """Carrier action on F's source obtained by precomposition with F."""
    obj = {x: carrier_of(gamma, F.on_obj(x)) for x in F.source.objects}
    mor = {m.name: setmap_of(gamma, F.on_mor(m.name)) for m in F.source.morphisms}
    return carrier_functor(name, F.source, obj, mor)


def gamma_on_base(s: Setup) -> FunctorData:
    return pullback_carrier(s.gamma, j1j2(s), "gamma.j1j2")


# ---------------------------------------------------------------------------
# The comma web: every comma category and induced functor the construction
# and its lemmas refer to.

# name -> (J, K, source, target): the functor induced from (Id_B, J, K)
# between two of the web's comma categories.  J and K are setup functors,
# their composite j1j2, or the identities Id_I and Id_M.
INDUCED = {
    "pi_star": ("pi", "Id_M", "comma_main", "comma_probe"),
    "pi_star_section": ("j1", "Id_M", "comma_probe", "comma_main"),
    "iota1": ("j2", "j1j2", "arrow_base", "comma_probe"),
    "iota2": ("j1j2", "j1j2", "arrow_base", "comma_main"),
    "iota3": ("j2", "j2", "arrow_base", "comma_inter"),
    "iota4": ("Id_I", "pi", "comma_probe", "comma_inter"),
    "iota5": ("Id_I", "j1", "comma_inter", "comma_probe"),
    "iota6": ("j1", "j1", "comma_inter", "comma_main"),
    "iota7": ("pi", "pi", "comma_main", "comma_inter"),
}


class CommaWeb:
    """The four comma categories of a setup and the functors INDUCED
    between them.

    Each member is built the first time it is read and kept, so a command
    pays only for the comma categories it uses.
    """

    def __init__(self, s: Setup):
        self.s = s
        self._induced: dict[str, FunctorData] = {}

    @cached_property
    def arrow_base(self) -> CommaCategory:
        """Arrow(B)."""
        return arrow_category(self.s.base)

    @cached_property
    def comma_main(self) -> CommaCategory:
        """(j1 j2 | Id_M)."""
        return build_comma(j1j2(self.s), identity_functor(self.s.main), "(j1j2|M)")

    @cached_property
    def comma_probe(self) -> CommaCategory:
        """(j2 | pi)."""
        return build_comma(self.s.j2, self.s.pi, "(j2|pi)")

    @cached_property
    def comma_inter(self) -> CommaCategory:
        """(j2 | Id_I)."""
        return build_comma(self.s.j2, identity_functor(self.s.inter), "(j2|I)")

    def _leg(self, key: str) -> FunctorData:
        s = self.s
        if key == "j1j2":
            return j1j2(s)
        if key in ("Id_I", "Id_M"):
            return identity_functor(s.inter if key == "Id_I" else s.main)
        return getattr(s, key)

    def induced(self, name: str) -> FunctorData:
        """The functor INDUCED[name]; raises EngineError when one of its
        defining squares fails."""
        if name not in self._induced:
            J, K, src, dst = INDUCED[name]
            self._induced[name] = induced_comma_functor(
                name,
                identity_functor(self.s.base),
                self._leg(J),
                self._leg(K),
                getattr(self, src),
                getattr(self, dst),
            )
        return self._induced[name]

    @cached_property
    def iota3_rstar(self) -> FunctorData | None:
        """The inverse of iota3, when iota3 is invertible."""
        rstar = functor_inverse(self.induced("iota3"))
        return None if rstar is None else rstar._replace(name="iota3_rstar")


def build_comma_web(s: Setup) -> CommaWeb:
    if s._web is None:
        s._web = CommaWeb(s)
    return s._web


# ---------------------------------------------------------------------------
# Assumptions.


def check_assumptions(s: Setup) -> ValidationReport:
    """Itemized validation: carrier action, base nullity, retraction
    triangle, and the declared retraction of the base-to-intermediate
    comma embedding."""
    violations: list[Violation] = []
    checked = {"A1": 0, "A2": 0, "A3": 0, "A4": 0}

    # A:1 gamma is a genuine Set-valued functor.
    rep = check_carrier_action(s.gamma)
    checked["A1"] = sum(rep.checked.values())
    violations += [Violation(f"A1-{v.law}", v.witness) for v in rep.violations]
    for F in (s.j2, s.j1, s.pi):
        frep = check_functor(F)
        checked["A1"] += sum(frep.checked.values())
        violations += [
            Violation(f"A1-{F.name}-{v.law}", v.witness) for v in frep.violations
        ]

    # A:2 the base carries a valid nullity assignment.
    if not violations:
        nrep = check_nullity_assignment(gamma_on_base(s), s.base_null)
        checked["A2"] = sum(nrep.checked.values())
        violations += [Violation(f"A2-{v.law}", v.witness) for v in nrep.violations]

    # A:3 pi . j1 = Id_I on the nose.
    comp = compose_functors(s.pi, s.j1)
    checked["A3"] = len(s.inter.objects) + len(s.inter.morphisms)
    for x in s.inter.objects:
        if comp.obj_map[x] != x:
            violations.append(_violation("A3-triangle", object=x, image=comp.obj_map[x]))
    for m in s.inter.morphisms:
        if comp.mor_map[m.name] != m.name:
            violations.append(
                _violation("A3-triangle", morphism=m.name, image=comp.mor_map[m.name])
            )

    # A:4 iota3 is invertible, so its inverse rstar retracts it.  Broken
    # tables can stop the comma categories it runs between from being built.
    if not any(v.law.startswith(("A1", "A3")) for v in violations):
        checked["A4"] = 1
        try:
            rstar = build_comma_web(s).iota3_rstar
            detail = "no iota3_rstar supplied or derivable"
        except EngineError as e:
            rstar, detail = None, str(e)
        if rstar is None:
            violations.append(_violation("A4-missing", detail=detail))
    return ValidationReport(not violations, checked, violations)


# ---------------------------------------------------------------------------
# Pipeline stages.


def comma_nullity(s: Setup) -> NullityDiagram:
    """Preimage nullity at every object of the main comma category."""
    web = build_comma_web(s)
    cm = web.comma_main
    values = {}
    for oid, (b, phi, m) in cm.obj_data.items():
        values[oid] = preimage_nullity(setmap_of(s.gamma, phi), s.base_null[b])
    transport = {mid: setmap_of(s.gamma, g) for mid, g in cm.forget2.mor_map.items()}
    return NullityDiagram(cm.category, values, transport)


def probe_carriers(s: Setup) -> dict[str, FiniteSet]:
    web = build_comma_web(s)
    return {
        oid: carrier_of(s.gamma, m)
        for oid, (b, phi, m) in web.comma_probe.obj_data.items()
    }


class PipelineResult(NamedTuple):
    comma_values: NullityDiagram
    comma_violations: list[Violation]
    probed: KanResult
    main: KanResult
    main_null: dict[str, NullityStructure]
    invariance: ValidationReport

    def as_dict(self) -> dict:
        return {
            "comma_nullity": {
                o: v.sorted_labels() for o, v in self.comma_values.values.items()
            },
            "comma_violations": [v.as_dict() for v in self.comma_violations],
            "probed_null": {
                o: v.sorted_labels() for o, v in self.probed.extension.items()
            },
            "paths": {
                "probed": dict.fromkeys(self.probed.extension, "fast"),
                "main": dict.fromkeys(self.main.extension, "fast"),
            },
            "slice_sizes": {
                "probed": self.probed.slice_sizes,
                "main": self.main.slice_sizes,
            },
        }


def run_pipeline(s: Setup) -> PipelineResult:
    web = build_comma_web(s)
    diag = comma_nullity(s)
    comma_violations = diag.preservation_violations()
    probed = right_kan(web.induced("pi_star"), diag, probe_carriers(s))
    pdiag = NullityDiagram(web.comma_probe.category, dict(probed.extension))
    main_carriers = {V: carrier_of(s.gamma, V) for V in s.main.objects}
    main = left_kan(web.comma_probe.forget2, pdiag, main_carriers)
    invariance = check_nullity_assignment(s.gamma, main.extension)
    if not invariance.ok:
        # The fiber formula is functorial only when the comma nullity is a
        # functor and each strict fiber is initial (right step) or final
        # (left step) in its slice; see ROADMAP item 1.  Inputs that fail
        # those hypotheses stop here as bad input (exit 2) for now.
        raise EngineError(
            f"pipeline produced a non-functorial main nullity: "
            f"{[v.as_dict() for v in invariance.violations][:3]}"
        )
    return PipelineResult(diag, comma_violations, probed, main, main.extension, invariance)


def main_null(s: Setup) -> dict[str, NullityStructure]:
    return run_pipeline(s).main_null


# ---------------------------------------------------------------------------
# The independent oracle: plain set loops, no categorical machinery.


def direct_prevalence(s: Setup) -> dict[str, NullityStructure]:
    """Union over probes of the intersection over lifts of preimage nullity."""
    jj = j1j2(s)
    out: dict[str, NullityStructure] = {}
    for V in s.main.objects:
        carrier = carrier_of(s.gamma, V)
        pieces = []
        for b in s.base.objects:
            for A in s.inter.hom(s.j2.on_obj(b), s.pi.on_obj(V)):
                lifts = [
                    T
                    for T in s.main.hom(jj.on_obj(b), V)
                    if s.pi.on_mor(T) == A
                ]
                inner = intersect_all(
                    carrier,
                    [
                        preimage_nullity(setmap_of(s.gamma, T), s.base_null[b])
                        for T in lifts
                    ],
                )
                pieces.append(inner)
        out[V] = union_all(carrier, pieces)
    return out


# ---------------------------------------------------------------------------
# Saturation and testability.


def bar_base(s: Setup) -> dict[str, NullityStructure]:
    return _bar_null(gamma_on_base(s), s.base_null)


def is_saturated_base(s: Setup) -> bool:
    return _is_saturated(gamma_on_base(s), s.base_null)


def probe_pushforwards(s: Setup, V: str) -> list[frozenset[int]]:
    """The base family of each probe at V, pushed forward along its lift."""
    web = build_comma_web(s)
    out = []
    for b, A, m in web.comma_probe.obj_data.values():
        lift = s.j1.on_mor(A)
        if m == V and s.main.cod(lift) == V:
            out.append(pushforward_closure(setmap_of(s.gamma, lift), s.base_null[b]).masks)
    return out


def is_testable(pushed: list[frozenset[int]], null: frozenset[int]) -> bool:
    """Some family of `probe_pushforwards` sits inside `null`."""
    return any(p <= null for p in pushed)


# ---------------------------------------------------------------------------
# Theorem verifiers.


def verify_invariance(
    s: Setup, assignment: dict[str, NullityStructure] | None = None
) -> ValidationReport:
    """Every endomorphism of every main object maps null sets to null sets."""
    if assignment is None:
        assignment = main_null(s)
    carriers = {V: carrier_of(s.gamma, V) for V in s.main.objects}
    masks = masks_on(carriers, assignment)
    endos = transports_of(
        s.main, s.gamma.carrier_mor, [e for V in s.main.objects for e in s.main.endos(V)]
    )
    violations = []
    for e, bad in failed_transports(masks, endos):
        V = s.main.dom(e)
        violations.append(
            _violation(
                "invariance",
                object=V,
                endomorphism=e,
                null_set=carriers[V].label(bad),
                image=carriers[V].label(setmap_of(s.gamma, e).image_mask(bad)),
            )
        )
    return ValidationReport(not violations, {"endomorphisms": len(endos)}, violations)


def verify_minimality(s: Setup) -> ValidationReport:
    """main_null is contained in every testable assignment that preserves
    each endomorphism; other morphisms are not checked (ROADMAP item 2).

    Enumerates the full candidate space (product of all null families per
    main object), so it refuses models where that space exceeds
    MINIMALITY_GUARD.
    """
    objs = list(s.main.objects)
    carriers = {V: carrier_of(s.gamma, V) for V in objs}
    per_obj = {V: all_down_sets(carriers[V]) for V in objs}
    total = math.prod(map(len, per_obj.values()))
    if total > MINIMALITY_GUARD:
        raise BudgetExceeded(
            f"verify_minimality candidate space ({total}; a reduced model is required)",
            MINIMALITY_GUARD,
        )
    computed = main_null(s)
    endos = transports_of(s.main, s.gamma.carrier_mor, [e for V in objs for e in s.main.endos(V)])
    pushed = {V: probe_pushforwards(s, V) for V in objs}

    violations: list[Violation] = []
    checked = {"candidates": 0, "admissible": 0}
    for combo in itertools.product(*(per_obj[V] for V in objs)):
        checked["candidates"] += 1
        cand = dict(zip(objs, combo))
        if any(failed_transports(cand, endos)):
            continue
        if not all(is_testable(pushed[V], cand[V]) for V in objs):
            continue
        checked["admissible"] += 1
        for V in objs:
            if not computed[V].masks <= cand[V]:
                extra = min(computed[V].masks - cand[V])
                violations.append(
                    _violation(
                        "minimality",
                        object=V,
                        null_set=carriers[V].label(extra),
                        candidate=str([carriers[V].label(m) for m in sorted(cand[V])]),
                    )
                )
                break
        if len(violations) >= MAX_VIOLATIONS:
            break
    return ValidationReport(not violations, checked, violations)


class ExtensionReport(NamedTuple):
    hypothesis_met: bool
    items: dict[str, dict]

    @property
    def ok(self) -> bool:
        return self.hypothesis_met and all(
            it.get("status") in ("verified", "skipped") for it in self.items.values()
        )

    def as_dict(self) -> dict:
        return {"hypothesis_met": self.hypothesis_met, "items": self.items}


def find_pi_star_section(
    s: Setup, budget: int = DEFAULT_BUDGET
) -> tuple[FunctorData | None, str]:
    """(section, how): the induced one, an exhaustively found one, or None."""
    web = build_comma_web(s)
    try:
        # The section's right square needs j1 . pi = Id_M, which fails
        # whenever M has morphisms that the intermediate category forgets.
        cand = web.induced("pi_star_section")
    except EngineError:
        cand = None
    pi_star = web.induced("pi_star")
    if cand is not None and check_right_inverse(pi_star, cand):
        return cand, "induced"
    try:
        found = find_section(pi_star, budget)
    except BudgetExceeded:
        return None, "budget"
    if found is not None:
        return found, "search"
    return None, "absent"


def verify_extension(s: Setup, budget: int = DEFAULT_BUDGET) -> ExtensionReport:
    """Does the lifted nullity restrict back to the base nullity?

    Gated on the saturation hypothesis and the declared iota3 retraction;
    checks the three construction squares, the three triangles (the probe
    triangle only when pi_star admits a section, which is a hypothesis the
    statement needs), and the object-by-object restriction equality.
    """
    items: dict[str, dict] = {}
    a4 = check_assumptions(s)
    # The carriers pull back along j1 j2 only where j1 and j2 send every
    # object and morphism to one with the right endpoints.
    unmapped = {
        f"A1-{F.name}-functor-{law}"
        for F in (s.j1, s.j2)
        for law in ("object", "morphism", "endpoints")
    }
    if unmapped.isdisjoint(v.law for v in a4.violations):
        gamma_b = gamma_on_base(s)
        bar = _bar_null(gamma_b, s.base_null)
        bad = next((b for b in s.base.objects if bar[b].masks != s.base_null[b].masks), None)
        if bad is not None:
            items["saturation"] = {
                "status": "unmet",
                "witness_object": bad,
                "bar": bar[bad].sorted_labels(),
                "base": s.base_null[bad].sorted_labels(),
            }
    if not a4.ok:
        items["assumptions"] = {
            "status": "unmet",
            "violations": [v.as_dict() for v in a4.violations][:5],
        }
    if items:
        return ExtensionReport(False, items)

    web = build_comma_web(s)
    jj = j1j2(s)
    pipe = run_pipeline(s)

    # Square 1: the carrier action commutes with the comma construction.
    if not s.gamma.target.same_table(gamma_b.target):
        items["gamma_square"] = {
            "status": "skipped",
            "reason": "base and main carriers live in different set categories",
        }
    else:
        gamma_comma = build_comma(gamma_b, s.gamma, "(gamma.j1j2|gamma)")
        lift_gamma = induced_comma_functor(
            "gamma_post",
            identity_functor(s.base),
            s.gamma,
            identity_functor(s.main),
            web.comma_main,
            gamma_comma,
        )
        arrow_to_gamma = induced_comma_functor(
            "gamma_arrow",
            identity_functor(s.base),
            gamma_b,
            jj,
            web.arrow_base,
            gamma_comma,
        )
        via_iota2 = compose_functors(lift_gamma, web.induced("iota2"))
        items["gamma_square"] = {
            "status": "verified" if functor_equal(via_iota2, arrow_to_gamma) else "failed"
        }

    # Square 2: pi_star . iota2 = iota1.
    iota1, iota2 = web.induced("iota1"), web.induced("iota2")
    sq2 = functor_equal(compose_functors(web.induced("pi_star"), iota2), iota1)
    items["probe_square"] = {"status": "verified" if sq2 else "failed"}

    # Square 3: the marginal of iota1 over the second projections.
    sq3 = functor_equal(
        compose_functors(web.comma_probe.forget2, iota1),
        compose_functors(jj, web.arrow_base.forget2),
    )
    items["marginal_square"] = {"status": "verified" if sq3 else "failed"}

    # Arrow-level base nullity, shared by two triangles.
    arrow_null = {
        oid: preimage_nullity(setmap_of(gamma_b, phi), s.base_null[b])
        for oid, (b, phi, b2) in web.arrow_base.obj_data.items()
    }

    # Yellow triangle: restricting the comma nullity along iota2 gives the
    # arrow-level base nullity (true by construction, still checked).
    yellow_bad = [
        oid
        for oid in web.arrow_base.category.objects
        if pipe.comma_values.values[iota2.on_obj(oid)].masks
        != arrow_null[oid].masks
    ]
    items["triangle_comma"] = {
        "status": "verified" if not yellow_bad else "failed",
        "witnesses": yellow_bad[:3],
    }

    # Blue triangle: probed . iota1 = arrow-level base nullity.  Needs a
    # section of pi_star; reported as skipped (with the reason) when none
    # exists, since the intersection over a probe's lifts can drop below
    # the base value exactly then.
    section, how = find_pi_star_section(s, budget)
    if section is None:
        items["triangle_probe"] = {
            "status": "skipped",
            "reason": "pi_star has no right inverse in this model",
        }
    else:
        blue_bad = [
            oid
            for oid in web.arrow_base.category.objects
            if pipe.probed.extension[iota1.on_obj(oid)].masks
            != arrow_null[oid].masks
        ]
        items["triangle_probe"] = {
            "status": "verified" if not blue_bad else "failed",
            "section": how,
            "witnesses": blue_bad[:3],
        }

    # Red triangle: the lifted nullity restricted along j1 j2 equals the
    # bar closure of the base (= the base itself, once saturated).
    red_bad = [
        b
        for b in s.base.objects
        if pipe.main_null[jj.on_obj(b)].masks != bar[b].masks
    ]
    items["triangle_restrict"] = {
        "status": "verified" if not red_bad else "failed",
        "witnesses": red_bad[:3],
    }

    # The theorem itself: main_null . j1j2 = base_null pointwise.
    eq_bad = []
    for b in s.base.objects:
        got = pipe.main_null[jj.on_obj(b)]
        want = s.base_null[b]
        if got.masks != want.masks:
            eq_bad.append(
                {
                    "object": b,
                    "computed": got.sorted_labels(),
                    "base": want.sorted_labels(),
                }
            )
    items["extension_equality"] = {
        "status": "verified" if not eq_bad else "failed",
        "witnesses": eq_bad[:3],
    }
    return ExtensionReport(True, items)


# ---------------------------------------------------------------------------
# Builtin desk models.


def _f2_main() -> tuple[FinCategory, FunctorData]:
    """Points and lines over the two-element field, with translations."""
    o0, o1 = "F2^0", "F2^1"
    id0, id1 = "id:F2^0", "id:F2^1"
    mors = [
        (id0, o0, o0),
        (id1, o1, o1),
        ("T0", o0, o1),
        ("T1", o0, o1),
        ("s", o1, o1),
    ]
    comp = {
        (id0, id0): id0,
        (id1, id1): id1,
        ("T0", id0): "T0",
        ("T1", id0): "T1",
        (id1, "T0"): "T0",
        (id1, "T1"): "T1",
        ("s", "T0"): "T1",
        ("s", "T1"): "T0",
        ("s", id1): "s",
        (id1, "s"): "s",
        ("s", "s"): id1,
    }
    M = FinCategory("F2-affine", (o0, o1), mors, {o0: id0, o1: id1}, comp)
    c0 = FiniteSet(("0",))
    c1 = FiniteSet(("0", "1"))
    gamma = carrier_functor(
        "gamma",
        M,
        {o0: c0, o1: c1},
        {
            id0: SetMap(c0, c0, (0,)),
            id1: SetMap(c1, c1, (0, 1)),
            "T0": SetMap(c0, c1, (0,)),
            "T1": SetMap(c0, c1, (1,)),
            "s": SetMap(c1, c1, (1, 0)),
        },
    )
    return M, gamma


def _f2_base() -> FinCategory:
    o0, o1 = "F2^0", "F2^1"
    id0, id1 = "id:F2^0", "id:F2^1"
    mors = [(id0, o0, o0), (id1, o1, o1), ("A0", o0, o1)]
    comp = {
        (id0, id0): id0,
        (id1, id1): id1,
        ("A0", id0): "A0",
        (id1, "A0"): "A0",
    }
    return FinCategory("F2-linear", (o0, o1), mors, {o0: id0, o1: id1}, comp)


def _f2_setup(kind: str) -> Setup:
    B = _f2_base()
    M, gamma = _f2_main()
    ident_b = {x: x for x in B.objects}
    j2 = identity_functor(B)
    j1 = FunctorData(
        "j1",
        B,
        M,
        dict(ident_b),
        {"id:F2^0": "id:F2^0", "id:F2^1": "id:F2^1", "A0": "T0"},
    )
    pi = FunctorData(
        "pi",
        M,
        B,
        dict(ident_b),
        {
            "id:F2^0": "id:F2^0",
            "id:F2^1": "id:F2^1",
            "T0": "A0",
            "T1": "A0",
            "s": "id:F2^1",
        },
    )
    base = {
        x: base_nullity(kind, carrier_of(gamma, x)) for x in B.objects
    }
    return Setup(f"f2_{kind}", B, B, M, j2, j1, pi, gamma, base)


def _identity_setup() -> Setup:
    o = "o"
    ido = "id:o"
    C = FinCategory(
        "loop",
        (o,),
        [(ido, o, o), ("s", o, o)],
        {o: ido},
        {(ido, ido): ido, ("s", ido): "s", (ido, "s"): "s", ("s", "s"): ido},
    )
    c = FiniteSet(("x0", "x1"))
    gamma = carrier_functor(
        "gamma",
        C,
        {o: c},
        {ido: SetMap(c, c, (0, 1)), "s": SetMap(c, c, (1, 0))},
    )
    ident = identity_functor(C)
    base = {o: proper_nullity(c)}
    return Setup("identity", C, C, C, ident, ident, ident, gamma, base)


def _injections_setup(k: int) -> Setup:
    carriers = {f"S{n}": FiniteSet(("a", "b", "c")[:n]) for n in range(4)}
    maps = _admitted_maps(
        carriers, lambda f, a, b: len(set(f.images)) == len(f.images), prefix="inj:"
    )
    C = _maps_category("injections", maps)
    gamma = carrier_functor("gamma", C, carriers, maps.setmap)
    ident = identity_functor(C)
    base = {o: base_nullity("cardinality", c, k) for o, c in carriers.items()}
    return Setup(f"injections_card_{k}", C, C, C, ident, ident, ident, gamma, base)


BUILTIN_NAMES = (
    "identity",
    "f2_trivial",
    "f2_proper",
    "injections_card_0",
    "injections_card_1",
    "injections_card_2",
)


def builtin_model(name: str) -> Setup:
    if name == "identity":
        return _identity_setup()
    if name == "f2_trivial":
        return _f2_setup("trivial")
    if name == "f2_proper":
        return _f2_setup("proper")
    if name in BUILTIN_NAMES and name.startswith("injections_card_"):
        return _injections_setup(int(name[-1]))
    raise EngineError(f"unknown builtin model {name!r} (have {', '.join(BUILTIN_NAMES)})")
