"""Comma categories, arrow categories, and functors induced between them.

A comma category over a cospan  A --alpha--> C <--beta-- B  is materialized
with objects (a, phi, b) where phi: alpha(a) -> beta(b), and morphisms the
commuting squares (f, g).  Both forgetful functors are built alongside the
category; jointly faithful, they certify its associativity.
`induced_comma_functor` lifts a triple of functors between two such cospans
after exhaustively checking the two defining squares.
"""

from __future__ import annotations

from typing import NamedTuple

from .fincat import (
    EngineError,
    FinCategory,
    FunctorData,
    Mor,
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


class CommaCategory(NamedTuple):
    """A materialized comma category.  A morphism's components (f, g) are
    its images under `forget1` and `forget2`."""

    category: FinCategory
    left: FunctorData
    right: FunctorData
    obj_data: dict[str, tuple[str, str, str]]
    forget1: FunctorData
    forget2: FunctorData


def build_comma(
    alpha: FunctorData, beta: FunctorData, name: str | None = None
) -> CommaCategory:
    """Materialize the comma category of the cospan (alpha, beta); refuses
    one of more than MAX_COMMA_OBJECTS objects or MAX_COMMA_MORPHISMS
    morphisms before it names a morphism."""
    A, B, C = alpha.source, beta.source, alpha.target
    if not C.same_table(beta.target):
        raise EngineError(
            f"build_comma: {alpha.name} and {beta.name} have different targets"
        )
    name = name or f"({alpha.name}|{beta.name})"

    # Objects (a, phi, b) as indices into A, C and B.
    objects: list[str] = []
    obj_data: dict[str, tuple[str, str, str]] = {}
    ends: list[tuple[int, int, int]] = []
    for ai, a in enumerate(A.objects):
        for bi, b in enumerate(B.objects):
            for phi in C.hom(alpha.on_obj(a), beta.on_obj(b)):
                oid = comma_obj(a, phi, b)
                objects.append(oid)
                obj_data[oid] = (a, phi, b)
                ends.append((ai, C._index[phi], bi))
    if len(objects) > MAX_COMMA_OBJECTS:
        raise EngineError(f"{name}: {len(objects)} objects exceed bound {MAX_COMMA_OBJECTS}")

    # The commuting squares x -> y, as (f, g) index pairs, counted in full
    # before any morphism is named.
    am, bm = _mor_indices(alpha), _mor_indices(beta)
    squares: list[list[tuple[int, int]]] = []
    n_squares = 0
    a_hom: dict[tuple[int, int], list[int]] = {}
    for a, phi, b in ends:
        # after[b2]: the g: b -> b2 grouped by beta(g) after phi.
        after: dict[int, dict[int, list[int]]] = {}
        for a2, phi2, b2 in ends:
            fs = a_hom.get((a, a2))
            if fs is None:
                fs = a_hom[a, a2] = [f for f in A._in[a2] if A._dom[f] == a]
            if fs and b2 not in after:
                after[b2] = {}
                for g in B._in[b2]:
                    if B._dom[g] == b:
                        after[b2].setdefault(_after(C, bm[g], phi), []).append(g)
            found = [(f, g) for f in fs for g in after[b2].get(_after(C, phi2, am[f]), ())]
            n_squares += len(found)
            if n_squares > MAX_COMMA_MORPHISMS:
                raise EngineError(f"{name}: more than {MAX_COMMA_MORPHISMS} morphisms")
            squares.append(found)

    # at[x sx + y sy + (f + 1) n_b + g + 1]: the index of the square
    # (f, g): x -> y.  With f + 1 and g + 1 as digits, f or g = -1 (a
    # missing composite) gives a key that names no square.
    n_a, n_b = len(A.morphisms) + 1, len(B.morphisms) + 1
    sy = n_a * n_b
    sx = len(objects) * sy
    morphisms: list[Mor] = []
    fst: dict[str, str] = {}
    snd: dict[str, str] = {}
    at: dict[int, int] = {}
    mor_ends: list[tuple[int, int, int, int]] = []
    for xy, found in enumerate(squares):
        if not found:
            continue
        x, y = divmod(xy, len(objects))
        for f, g in found:
            mid = comma_mor(A._names[f], B._names[g], objects[x], objects[y])
            at[x * sx + y * sy + (f + 1) * n_b + g + 1] = len(morphisms)
            morphisms.append(Mor(mid, objects[x], objects[y]))
            mor_ends.append((f, g, x, y))
            fst[mid] = A._names[f]
            snd[mid] = B._names[g]

    identity = {}
    for xid, (a, phi, b) in obj_data.items():
        identity[xid] = comma_mor(A.id_of(a), B.id_of(b), xid, xid)

    # The row of (f2, g2): x2 -> y2 runs over the squares (f1, g1): x1 -> x2,
    # and its entry is the square (f2 f1, g2 g1): x1 -> y2.  into[x2] holds
    # each such (f1, g1) as (x1 sx + n_b + 1, place of f1, place of g1).  At
    # the first entry that names no square, a composite that A or B lacks
    # raises by name; otherwise the composite square does not commute.
    into: list[list[tuple[int, int, int]]] = [[] for _ in objects]
    for f1, g1, x1, x2 in mor_ends:
        into[x2].append((x1 * sx + n_b + 1, A._pos[f1], B._pos[g1]))
    rows = []
    for k, (f2, g2, x2, y2) in enumerate(mor_ends):
        ra, rb, y = A._rows[f2], B._rows[g2], y2 * sy
        row = [at.get(x + y + ra[pa] * n_b + rb[pb], -1) for x, pa, pb in into[x2]]
        if -1 in row:
            j = [j for j, (*_, to) in enumerate(mor_ends) if to == x2][row.index(-1)]
            f1, g1 = mor_ends[j][:2]
            _after(A, f2, f1)
            _after(B, g2, g1)
            raise EngineError(
                f"{name}: {morphisms[k].name} after {morphisms[j].name} is not a commuting square"
            )
        rows.append(row)

    cat = FinCategory.from_rows(name, objects, morphisms, identity, rows)
    forget1 = FunctorData(f"fst[{name}]", cat, A, {x: obj_data[x][0] for x in objects}, fst)
    forget2 = FunctorData(f"snd[{name}]", cat, B, {x: obj_data[x][2] for x in objects}, snd)
    cat.faithful = (forget1, forget2)
    return CommaCategory(cat, alpha, beta, obj_data, forget1, forget2)


def _mor_indices(F: FunctorData) -> list[int]:
    """F on morphisms, as indices of F's source and target."""
    index = F.target._index
    out = []
    for m in F.source._names:
        fm = F.on_mor(m)
        if fm not in index:
            raise EngineError(f"functor {F.name}: image {fm!r} of {m!r} is no morphism")
        out.append(index[fm])
    return out


def _after(C: FinCategory, g: int, f: int) -> int:
    """Index of g after f in C; raises EngineError where C has no entry."""
    h = C._composite(g, f)
    if h < 0:
        C.compose(C._names[g], C._names[f])
    return h


def terminal_category() -> FinCategory:
    i = "id:*"
    return FinCategory("*", ("*",), ((i, "*", "*"),), {"*": i}, {(i, i): i})


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


def bang_functor(C: FinCategory) -> FunctorData:
    return const_functor(C, terminal_category(), "*", name=f"!{C.name}")


def arrow_category(C: FinCategory) -> CommaCategory:
    i = identity_functor(C)
    return build_comma(i, i, f"Arr({C.name})")


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
