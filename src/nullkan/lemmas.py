"""Machine checks for the adjoint and Kan-identity lemmas.

Each lemma gets a checker that first machine-verifies its hypotheses on
the given instance (adjoints found by exhaustive search, required
(co)limits actually existing) and only then asserts the conclusion.
Instances where a hypothesis fails are reported as vacuous, never as
silent passes: with only a pre- or post-adjoint the textbook proofs
produce a retract of the true (co)limit, so the statements are honest on
thin (preorder-shaped) instances, and the generators below stick to
chains, collapse functors, and down-set lattices of small carriers.
Restrict-source and after-composite are checked as the Kan square
(Mac Lane, *Categories for the Working Mathematician*, X.3-X.5).
"""

from __future__ import annotations

import functools
import random

from .comma import (
    build_comma,
    check_half_right_adjoint,
    const_functor,
    find_iso,
    induced_comma_functor,
    search_half_right_adjoint,
    terminal_category,
)
from .fincat import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EngineError,
    FinCategory,
    FunctorData,
    build_preorder,
    chain_preorder,
    colimit,
    compose_functors,
    find_section,
    functor_equal,
    identity_functor,
    limit,
)
from .nullity import nullity_fiber_preorder
from .order import FiniteSet


def thin_functor(name: str, src: FinCategory, tgt: FinCategory, obj_map: dict) -> FunctorData:
    """Functor into a thin category: the morphism map is forced."""
    by_ends = {(m.dom, m.cod): m.name for m in tgt.morphisms}
    mor_map = {}
    for m in src.morphisms:
        key = (obj_map[m.dom], obj_map[m.cod])
        if key not in by_ends:
            raise EngineError(
                f"{name}: {m.name} has no image ({key[0]} !<= {key[1]})"
            )
        mor_map[m.name] = by_ends[key]
    return FunctorData(name, src, tgt, dict(obj_map), mor_map)


# ---------------------------------------------------------------------------
# Checkers.  Every result is a dict with a `status` of "verified",
# "vacuous", or "failed", plus enough detail to see why.


def _universal(oper, diagram, budget):
    try:
        res = oper(diagram, budget)
    except BudgetExceeded:
        return None, "budget"
    if res.cone is None:
        return None, res.reason or "absent"
    return res.cone.tip, None


def _vacuous_without_adjoint(
    out: dict, T: FunctorData, who: str, adj_kind: str, budget: int
) -> bool:
    """Search for a half right adjoint of T; if there is none, or the search
    hits the budget (noted in `out`), mark `out` vacuous and say so."""
    try:
        found = search_half_right_adjoint(T, adj_kind, budget)
    except BudgetExceeded:
        found = None
        out["note"] = "adjoint search hit the budget"
    if found is not None:
        return False
    out["status"] = "vacuous"
    out["reason"] = f"{who} has no {adj_kind}-right adjoint"
    return True


def check_precompose_invariance(
    f: FunctorData, g: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> dict:
    """Precomposition with f keeps the (co)limit of g, given a half adjoint.

    kind "colim" needs a post-right adjoint of f, kind "lim" a pre one.
    """
    out = {"lemma": "precompose-invariance", "kind": kind}
    if _vacuous_without_adjoint(out, f, "f", "post" if kind == "colim" else "pre", budget):
        return out
    oper = colimit if kind == "colim" else limit
    gf = compose_functors(g, f)
    tip_g, why_g = _universal(oper, g, budget)
    tip_gf, why_gf = _universal(oper, gf, budget)
    if tip_g is None or tip_gf is None:
        out["status"] = "vacuous"
        out["reason"] = f"{kind} missing ({why_g or why_gf})"
        return out
    iso = find_iso(g.target, tip_g, tip_gf)
    out["tips"] = (tip_g, tip_gf)
    out["status"] = "verified" if iso is not None else "failed"
    return out


def check_comma_inherits_adjoint(
    a: FunctorData, f: FunctorData, adj_kind: str, budget: int = DEFAULT_BUDGET
) -> dict:
    """A half right adjoint of a lifts to the induced comma-level functor."""
    out = {"lemma": "comma-inherits-adjoint", "kind": adj_kind}
    if _vacuous_without_adjoint(out, a, "a", adj_kind, budget):
        return out
    E = f.target
    fa = compose_functors(f, a)
    src = build_comma(fa, identity_functor(E), f"({fa.name}|{E.name})")
    dst = build_comma(f, identity_functor(E), f"({f.name}|{E.name})")
    a_star = induced_comma_functor(
        "a_star", a, identity_functor(E), identity_functor(E), src, dst
    )
    try:
        lifted = search_half_right_adjoint(a_star, adj_kind, budget)
    except BudgetExceeded:
        out["status"] = "vacuous"
        out["reason"] = "comma-level search hit the budget"
        return out
    out["comma_objects"] = (len(src.category.objects), len(dst.category.objects))
    out["status"] = "verified" if lifted is not None else "failed"
    return out


# The one-object category every slice is taken against.
_STAR = terminal_category()


def _slice(F: FunctorData, d: str, kind: str):
    """The slice of F at d over which a pointwise Kan extension of `kind`
    takes its (co)limit: the comma category (F/d) for "colim", (d/F) for
    "lim", against the one-object category `_STAR` sent to d.

    Returns the comma category, its projection to F's source, and
    `place(main, point)`, which puts a functor on F's source side and one
    on the one-object side into the (I, K) argument slots of
    `induced_comma_functor`.
    """
    anchor = const_functor(_STAR, F.target, d, name=f"at[{d}]")
    if kind == "colim":
        c = build_comma(F, anchor, f"({F.name}/{d})")
        return c, c.forget1, lambda main, point: (main, point)
    c = build_comma(anchor, F, f"({d}/{F.name})")
    return c, c.forget2, lambda main, point: (point, main)


def check_kan_square(
    a: FunctorData,
    b: FunctorData,
    d: FunctorData,
    e: FunctorData,
    f: FunctorData,
    kind: str,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """The Kan extension of b.a along d agrees with the extension of b
    along f read back through e, given f.a = e.d.

    At each object x of d's target, (a, e) induce a comparison from the
    slice of x along d into the slice of e(x) along f.  Where it has the
    required half adjoint (post-right for "colim", pre-right for "lim") and
    both (co)limits exist, their tips must be isomorphic.
    """
    out = {"lemma": "kan-square", "kind": kind}
    if not functor_equal(compose_functors(f, a), compose_functors(e, d)):
        out["status"] = "vacuous"
        out["reason"] = "the square f.a = e.d does not commute"
        return out
    adj_kind = "post" if kind == "colim" else "pre"
    oper = colimit if kind == "colim" else limit
    ba = compose_functors(b, a)
    point = identity_functor(_STAR)
    checked, vacuous, failed = 0, [], []
    for x in d.target.objects:
        src, src_proj, place = _slice(d, x, kind)
        dst, dst_proj, _ = _slice(f, e.on_obj(x), kind)
        I, K = place(a, point)
        t = induced_comma_functor(f"cmp[{x}]", I, e, K, src, dst)
        try:
            adj = search_half_right_adjoint(t, adj_kind, budget)
        except BudgetExceeded:
            adj = None
        tip_src, why_s = _universal(oper, compose_functors(ba, src_proj), budget)
        tip_dst, why_d = _universal(oper, compose_functors(b, dst_proj), budget)
        if adj is None:
            why = f"no {adj_kind}-right adjoint of the slice comparison"
            vacuous.append({"anchor": x, "reason": why})
        elif tip_src is None or tip_dst is None:
            why = f"missing (co)limit ({why_s or why_d})"
            vacuous.append({"anchor": x, "reason": why})
        else:
            checked += 1
            if find_iso(b.target, tip_src, tip_dst) is None:
                failed.append({"anchor": x, "tips": (tip_src, tip_dst), "ok": False})
    out["status"] = "failed" if failed else ("verified" if checked else "vacuous")
    out.update(objects_checked=checked, vacuous_at=vacuous, failures=failed)
    return out


def check_kan_restrict_source(
    a: FunctorData, b: FunctorData, f: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> dict:
    """Kan extension along f of b agrees with the one along f.a of b.a:
    the Kan square with d = f.a and e = Id."""
    id_e = identity_functor(f.target)
    out = check_kan_square(a, b, compose_functors(f, a), id_e, f, kind, budget)
    out["lemma"] = "kan-restrict-source"
    return out


def check_kan_after_composite(
    c: FunctorData, d: FunctorData, e: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> dict:
    """The Kan extension along e.d, evaluated back through e, is the one
    along d: the Kan square with a = Id and f = e.d."""
    id_a = identity_functor(d.source)
    out = check_kan_square(id_a, c, d, e, compose_functors(e, d), kind, budget)
    out["lemma"] = "kan-after-composite"
    out["note"] = "comparison goes from the d-slice into the ed-slice"
    return out


# ---------------------------------------------------------------------------
# Seeded instance generators.  All thin: chains, monotone maps between
# them, and inclusion chains inside down-set lattices.


@functools.cache
def _chain(name: str, n: int) -> FinCategory:
    # Shared by every caller: nothing changes a chain once it is built.
    return chain_preorder(name, [f"{name}{i}" for i in range(n)])


def _monotone(rng: random.Random, name: str, src: FinCategory, tgt: FinCategory) -> FunctorData:
    vals = sorted(rng.randrange(len(tgt.objects)) for _ in src.objects)
    obj_map = {x: tgt.objects[v] for x, v in zip(src.objects, vals)}
    return thin_functor(name, src, tgt, obj_map)


def _draw(rng: random.Random, sizes: dict, maps: list) -> tuple[dict, dict]:
    """The chains and monotone maps of one seeded instance, by name.

    `sizes` gives each chain a size, or a (least, most) pair drawn with
    `rng.randint` in dict order; `maps` lists (name, source, target) chain
    names, each map drawn with `_monotone` in list order.
    """
    chains = {
        c: _chain(c, n if isinstance(n, int) else rng.randint(*n)) for c, n in sizes.items()
    }
    return chains, {m: _monotone(rng, m, chains[a], chains[b]) for m, a, b in maps}


def _downset_chain(rng: random.Random, name: str, src: FinCategory, carrier: FiniteSet) -> FunctorData:
    """Monotone map from a chain into the down-set lattice of a carrier."""
    lattice, families = nullity_fiber_preorder(carrier)
    by_masks = {masks: fid for fid, masks in families.items()}
    fam = frozenset({0})
    picks = []
    for _ in src.objects:
        seed_mask = rng.randrange(1 << carrier.size) if carrier.size else 0
        extra = frozenset(
            m for m in range(1 << carrier.size) if m & seed_mask == m
        )
        fam = fam | extra
        picks.append(by_masks[fam])
    obj_map = {x: fid for x, fid in zip(src.objects, picks)}
    return thin_functor(name, src, lattice, obj_map)


def precompose_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(7):
        _, maps = _draw(
            rng, {"x": (1, 3), "y": (1, 3), "z": (2, 3)}, [("f", "x", "y"), ("g", "y", "z")]
        )
        out.append({"name": f"chains-{i}", **maps, "kind": rng.choice(["colim", "lim"])})
    for i, size in enumerate((0, 1, 2)):
        chains, maps = _draw(rng, {"x": (1, 2), "y": 2}, [("f", "x", "y")])
        g = _downset_chain(rng, "g", chains["y"], FiniteSet(tuple("ab"[:size])))
        out.append({"name": f"lattice-{i}", **maps, "g": g, "kind": rng.choice(["colim", "lim"])})
    # Guaranteed-hypothesis pair: a surjective chain map has both half
    # adjoints, so neither kind is vacuous here.
    X = _chain("x", 3)
    Y = _chain("y", 2)
    surj = thin_functor("f", X, Y, {"x0": "y0", "x1": "y0", "x2": "y1"})
    for kind in ("colim", "lim"):
        g = _monotone(rng, "g", Y, _chain("z", 3))
        out.append({"name": f"surjective-{kind}", "f": surj, "g": g, "kind": kind})
    # Guaranteed-vacuous: nothing maps onto the top of the 2-chain, so no
    # post-right adjoint exists (and dually no pre one for the top-only map).
    bot = thin_functor("f", _chain("x", 1), Y, {"x0": "y0"})
    top = thin_functor("f", _chain("x", 1), Y, {"x0": "y1"})
    g = _monotone(rng, "g", Y, _chain("z", 2))
    out.append({"name": "vacuous-colim", "f": bot, "g": g, "kind": "colim"})
    out.append({"name": "vacuous-lim", "f": top, "g": g, "kind": "lim"})
    return out


def comma_inherits_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(8):
        _, maps = _draw(
            rng, {"a": (1, 2), "b": (1, 2), "e": (1, 2)}, [("a", "a", "b"), ("f", "b", "e")]
        )
        out.append({"name": f"chains-{i}", **maps, "kind": rng.choice(["pre", "post"])})
    A = _chain("a", 2)
    B = _chain("b", 2)
    ident = thin_functor("a", A, B, {"a0": "b0", "a1": "b1"})
    for kind in ("pre", "post"):
        out.append(
            {
                "name": f"identity-{kind}",
                "a": ident,
                "f": _monotone(rng, "f", B, _chain("e", 2)),
                "kind": kind,
            }
        )
    bot = thin_functor("a", _chain("a", 1), B, {"a0": "b0"})
    out.append({"name": "vacuous-post", "a": bot, "f": _monotone(rng, "f", B, _chain("e", 2)), "kind": "post"})
    return out


def kan_restrict_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(8):
        _, maps = _draw(
            rng,
            {"a": (1, 2), "b": (1, 3), "e": (1, 2), "c": 3},
            [("a", "a", "b"), ("b", "b", "c"), ("f", "b", "e")],
        )
        out.append({"name": f"chains-{i}", **maps, "kind": rng.choice(["colim", "lim"])})
    # The stated-hypothesis trap: a collapses to the top of B, which has a
    # post-right adjoint, but the empty slice under the bottom of E makes
    # the slice comparison hypothesis fail; reported vacuous, and with a
    # strictly monotone b the naive conclusion really is wrong.
    A = _chain("a", 1)
    B = _chain("b", 2)
    E = B
    C = _chain("c", 2)
    out.append(
        {
            "name": "const-top-gap",
            "a": thin_functor("a", A, B, {"a0": "b1"}),
            "b": thin_functor("b", B, C, {"b0": "c1", "b1": "c1"}),
            "f": thin_functor("f", B, E, {"b0": "b0", "b1": "b1"}),
            "kind": "colim",
        }
    )
    return out


def kan_composite_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(9):
        _, maps = _draw(
            rng,
            {"a": (1, 2), "d": (1, 2), "e": (1, 2), "c": 3},
            [("c", "a", "c"), ("d", "a", "d"), ("e", "d", "e")],
        )
        out.append({"name": f"chains-{i}", **maps, "kind": rng.choice(["colim", "lim"])})
    # An antichain target has no cocone over a two-point diagram, so the
    # existence half of the hypotheses fails at every anchor.
    anti = build_preorder("w", ["w0", "w1"], [("w0", "w0"), ("w1", "w1")])
    D = _chain("d", 1)
    out.append(
        {
            "name": "vacuous-antichain",
            "c": identity_functor(anti),
            "d": thin_functor("d", anti, D, {"w0": "d0", "w1": "d0"}),
            "e": identity_functor(D),
            "kind": "colim",
        }
    )
    return out


def kan_square_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    made, tries = 0, 0
    while made < 9 and tries < 500:
        tries += 1
        chains, maps = _draw(
            rng,
            {"a": (1, 2), "b": (1, 2), "d": (1, 2), "e": (1, 2), "c": 3},
            [("a", "a", "b"), ("f", "b", "e"), ("d", "a", "d"), ("e", "d", "e")],
        )
        a, f, d, e = maps.values()
        if not functor_equal(compose_functors(f, a), compose_functors(e, d)):
            continue
        made += 1
        b = _monotone(rng, "b", chains["b"], chains["c"])
        out.append({"name": f"square-{made}", **maps, "b": b, "kind": rng.choice(["colim", "lim"])})
    return out


# Each lemma: its instance generator, its checker, and the instance keys
# passed to the checker in order (the budget follows them).
LEMMA_CHECKS = {
    "precompose_invariance": (
        precompose_instances, check_precompose_invariance, ("f", "g", "kind")
    ),
    "comma_inherits_adjoint": (
        comma_inherits_instances, check_comma_inherits_adjoint, ("a", "f", "kind")
    ),
    "kan_restrict_source": (
        kan_restrict_instances, check_kan_restrict_source, ("a", "b", "f", "kind")
    ),
    "kan_after_composite": (
        kan_composite_instances, check_kan_after_composite, ("c", "d", "e", "kind")
    ),
    "kan_square": (
        kan_square_instances, check_kan_square, ("a", "b", "d", "e", "f", "kind")
    ),
}


def run_lemma_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict[str, dict]:
    """All lemma checkers over their seeded instances, with per-lemma tallies."""
    report: dict[str, dict] = {}
    for lemma, (gen, check, keys) in LEMMA_CHECKS.items():
        rows = []
        for inst in gen(seed):
            res = check(*(inst[k] for k in keys), budget)
            res["instance"] = inst["name"]
            rows.append(res)
        report[lemma] = {
            "instances": len(rows),
            "verified": sum(r["status"] == "verified" for r in rows),
            "vacuous": sum(r["status"] == "vacuous" for r in rows),
            "failures": [r for r in rows if r["status"] == "failed"],
            "rows": rows,
        }
    return report


# ---------------------------------------------------------------------------
# The retraction/adjoint claims about the construction's own functors,
# checked per setup with the composites built from the comma web.


def check_setup_adjoints(s, budget: int = DEFAULT_BUDGET) -> dict:
    """Which of the comma-web claims hold on this setup.

    Checks the right inverses of pi_star and the probe-side second
    forgetful functor, the post-right adjoint of the main embedding, and
    the pre-right adjoints of the probe embedding and that forgetful
    functor, each via the declared composite candidate first and an
    exhaustive search as the fallback.
    """
    from .construct import build_comma_web, find_pi_star_section

    web = build_comma_web(s)
    out: dict[str, dict] = {}

    section, how = find_pi_star_section(s, budget)
    out["pi_star_right_inverse"] = {"present": section is not None, "how": how}

    forget2 = web.comma_probe.forget2
    try:
        sec2 = find_section(forget2, budget)
    except BudgetExceeded:
        sec2 = None
        out["forget2_right_inverse"] = {"present": False, "how": "budget"}
    else:
        out["forget2_right_inverse"] = {"present": sec2 is not None, "how": "search"}

    def half(name, T, cand, kind):
        got = None
        how = "absent"
        try:
            if cand is not None and check_half_right_adjoint(T, cand, kind, budget) is not None:
                got, how = cand, "composite"
            else:
                found = search_half_right_adjoint(T, kind, budget)
                if found is not None:
                    got, how = found[0], "search"
        except BudgetExceeded:
            how = "budget"
        out[name] = {"present": got is not None, "how": how}

    iota1, iota2 = web.induced("iota1"), web.induced("iota2")
    rstar = web.iota3_rstar
    rstar1 = rstar2 = None
    if rstar is not None:
        rstar1 = compose_functors(rstar, web.induced("iota4"), "iota1_rstar")
        rstar2 = compose_functors(rstar, web.induced("iota7"), "iota2_rstar")
    half("iota2_post_right_adjoint", iota2, rstar2, "post")
    half("iota1_pre_right_adjoint", iota1, rstar1, "pre")
    if sec2 is not None:
        # A genuine section is a pre- and post-right adjoint with identity
        # comparison, so only the absent case needs a search.
        out["forget2_pre_right_adjoint"] = {"present": True, "how": "section"}
    else:
        half("forget2_pre_right_adjoint", forget2, None, "pre")
    return out
