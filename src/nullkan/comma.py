"""Comma categories, arrow categories, and functors induced between them.

A comma category over a cospan  A --alpha--> C <--beta-- B  is materialized
with objects (a, phi, b) where phi: alpha(a) -> beta(b), and morphisms the
commuting squares (f, g).  Both forgetful functors are built alongside the
category; jointly faithful, they certify its associativity.
`induced_comma_functor` lifts a triple of functors between two such cospans
after exhaustively checking the two defining squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    EngineError,
    FinCategory,
    FunctorData,
    compose_functors,
    functor_diff,
    functor_equal,
    identity_functor,
)

MAX_COMMA_OBJECTS = 512
MAX_COMMA_MORPHISMS = 16384


def comma_obj(a: str, phi: str, b: str) -> str:
    return f"({a};{phi};{b})"


def comma_mor(f: str, g: str, dom: str, cod: str) -> str:
    # (f, g) alone does not determine the square: the same component pair
    # can connect different comparison morphisms, so endpoints are part of
    # the name.
    return f"[{f};{g}]{dom}>{cod}"


@dataclass
class CommaCategory:
    """A materialized comma category.  A morphism's components (f, g) are
    its images under `forget1` and `forget2`."""

    category: FinCategory
    left: FunctorData
    right: FunctorData
    obj_data: dict[str, tuple[str, str, str]]
    forget1: FunctorData
    forget2: FunctorData


def build_comma(
    alpha: FunctorData,
    beta: FunctorData,
    name: str | None = None,
    *,
    max_objects: int = MAX_COMMA_OBJECTS,
    max_morphisms: int = MAX_COMMA_MORPHISMS,
) -> CommaCategory:
    """Materialize the comma category of the cospan (alpha, beta)."""
    A, B, C = alpha.source, beta.source, alpha.target
    if not C.same_table(beta.target):
        raise EngineError(
            f"build_comma: {alpha.name} and {beta.name} have different targets"
        )
    name = name or f"({alpha.name}|{beta.name})"

    objects: list[str] = []
    obj_data: dict[str, tuple[str, str, str]] = {}
    for a in A.objects:
        for b in B.objects:
            for phi in C.hom(alpha.on_obj(a), beta.on_obj(b)):
                oid = comma_obj(a, phi, b)
                objects.append(oid)
                obj_data[oid] = (a, phi, b)
    if len(objects) > max_objects:
        raise EngineError(f"{name}: {len(objects)} objects exceed bound {max_objects}")

    morphisms: list[tuple[str, str, str]] = []
    fst: dict[str, str] = {}
    snd: dict[str, str] = {}
    for xid, (a, phi, b) in obj_data.items():
        for yid, (a2, phi2, b2) in obj_data.items():
            for f in A.hom(a, a2):
                lhs = C.compose(phi2, alpha.on_mor(f))
                for g in B.hom(b, b2):
                    if C.compose(beta.on_mor(g), phi) != lhs:
                        continue
                    if len(morphisms) == max_morphisms:
                        raise EngineError(f"{name}: more than {max_morphisms} morphisms")
                    mid = comma_mor(f, g, xid, yid)
                    morphisms.append((mid, xid, yid))
                    fst[mid] = f
                    snd[mid] = g

    identity = {}
    for xid, (a, phi, b) in obj_data.items():
        identity[xid] = comma_mor(A.id_of(a), B.id_of(b), xid, xid)

    by_cod: dict[str, list[str]] = {x: [] for x in objects}
    for mid, xid, yid in morphisms:
        by_cod[yid].append(mid)
    ends = {mid: (xid, yid) for mid, xid, yid in morphisms}

    composition = {}
    for m2, (x2, y2) in ends.items():
        for m1 in by_cod[x2]:
            composition[(m2, m1)] = comma_mor(
                A.compose(fst[m2], fst[m1]), B.compose(snd[m2], snd[m1]), ends[m1][0], y2
            )

    cat = FinCategory(name, objects, morphisms, identity, composition)
    forget1 = FunctorData(f"fst[{name}]", cat, A, {x: obj_data[x][0] for x in objects}, fst)
    forget2 = FunctorData(f"snd[{name}]", cat, B, {x: obj_data[x][2] for x in objects}, snd)
    cat.faithful = (forget1, forget2)
    return CommaCategory(cat, alpha, beta, obj_data, forget1, forget2)


def terminal_category(name: str = "*") -> FinCategory:
    i = f"id:{name}"
    return FinCategory(name, (name,), ((i, name, name),), {name: i}, {(i, i): i})


def const_functor(
    src: FinCategory, tgt: FinCategory, obj: str, name: str | None = None
) -> FunctorData:
    ident = tgt.id_of(obj)
    return FunctorData(
        name or f"const[{obj}]",
        src,
        tgt,
        {x: obj for x in src.objects},
        {m.name: ident for m in src.morphisms},
    )


def bang_functor(C: FinCategory, star: FinCategory | None = None) -> FunctorData:
    star = star or terminal_category()
    return const_functor(C, star, star.objects[0], name=f"!{C.name}")


def arrow_category(C: FinCategory, name: str | None = None) -> CommaCategory:
    i = identity_functor(C)
    return build_comma(i, i, name or f"Arr({C.name})")


def induced_comma_functor(
    name: str,
    I: FunctorData,
    J: FunctorData,
    K: FunctorData,
    src: CommaCategory,
    dst: CommaCategory,
) -> FunctorData:
    """Lift (I, J, K) to a functor between comma categories.

    Requires the two squares J.alpha = alpha'.I and J.beta = beta'.K, checked
    exhaustively; the marginal commutations with the forgetful functors then
    hold by construction.
    """
    left_lhs = compose_functors(J, src.left)
    left_rhs = compose_functors(dst.left, I)
    if not functor_equal(left_lhs, left_rhs):
        raise EngineError(
            f"{name}: left square fails ({J.name}.{src.left.name} != "
            f"{dst.left.name}.{I.name}) at {functor_diff(left_lhs, left_rhs)}"
        )
    right_lhs = compose_functors(J, src.right)
    right_rhs = compose_functors(dst.right, K)
    if not functor_equal(right_lhs, right_rhs):
        raise EngineError(
            f"{name}: right square fails ({J.name}.{src.right.name} != "
            f"{dst.right.name}.{K.name}) at {functor_diff(right_lhs, right_rhs)}"
        )

    obj_map = {}
    for xid, (a, phi, b) in src.obj_data.items():
        oid = comma_obj(I.on_obj(a), J.on_mor(phi), K.on_obj(b))
        if oid not in dst.obj_data:
            raise EngineError(f"{dst.category.name}: no comma object {oid}")
        obj_map[xid] = oid
    mor_map = {}
    fst, snd = src.forget1.mor_map, src.forget2.mor_map
    for m in src.category.morphisms:
        mid = comma_mor(
            I.on_mor(fst[m.name]), K.on_mor(snd[m.name]), obj_map[m.dom], obj_map[m.cod]
        )
        if mid not in dst.forget1.mor_map:
            raise EngineError(f"{dst.category.name}: no comma morphism {mid}")
        mor_map[m.name] = mid
    return FunctorData(name, src.category, dst.category, obj_map, mor_map)


def check_right_inverse(F: FunctorData, G: FunctorData) -> bool:
    """True iff F.G = Id on the target of F, on the nose."""
    if not F.source.same_table(G.target) or not F.target.same_table(G.source):
        return False
    return functor_equal(compose_functors(F, G), identity_functor(F.target))


def functor_inverse(F: FunctorData) -> FunctorData | None:
    """Inverse of a bijective-on-objects-and-morphisms functor, else None."""
    obj_inv: dict[str, str] = {}
    for x in F.source.objects:
        y = F.on_obj(x)
        if y in obj_inv:
            return None
        obj_inv[y] = x
    if len(obj_inv) != len(F.target.objects):
        return None
    mor_inv: dict[str, str] = {}
    for m in F.source.morphisms:
        im = F.on_mor(m.name)
        if im in mor_inv:
            return None
        mor_inv[im] = m.name
    if len(mor_inv) != len(F.target.morphisms):
        return None
    return FunctorData(f"inv[{F.name}]", F.target, F.source, obj_inv, mor_inv)
