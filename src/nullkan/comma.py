"""Comma categories and the functors induced between them.

A comma category over a cospan  A --alpha--> C <--beta-- B  is materialized
with objects (a, phi, b) where phi: alpha(a) -> beta(b), and morphisms the
commuting squares (f, g).  Its table, a `CommaTable`, indexes each square
by its legs (f, g) and its endpoints.  When the cospan's categories and
functors pass their checks, whose kept reports `build_comma` reads itself,
the table composes two squares from the composites of their legs, and
builds its composition rows only for a reader of the whole table.  Both
forgetful functors are built alongside the category; jointly faithful,
they certify its associativity.  `induced_comma_functor` lifts a triple of
functors between two such cospans after exhaustively checking the two
defining squares, and maps each square by index.  Right inverses, inverses,
half right adjoints and isomorphisms, which the construction and the lemma
checks look for between these categories, are found here too.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .fincat import (
    DEFAULT_BUDGET,
    EngineError,
    FinCategory,
    FunctorData,
    Mor,
    NatTransData,
    checked,
    compose_functors,
    enumerate_functors,
    find_nat_trans,
    functor_diff,
    functor_equal,
    identity_functor,
    validated,
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


class CommaTable(FinCategory):
    """The table of a comma category over A and B, indexed by square.

    Morphism k is a square from object `_dom[k]` to object `_cod[k]` whose
    legs are `fst[k]` in A and `snd[k]` in B, two int16 arrays; `_square`
    finds a square by its endpoints and legs.  `build_comma` builds the
    rows at once unless its cospan passes its checks.  Until the rows are
    built, `compose` answers from the legs: the composite of two squares is
    the square between the outer endpoints whose legs are the composites of
    theirs.  Only a reader of the whole table builds the rows (see
    `FinCategory`).
    """

    def _square(self, dom: str, cod: str, f: int, g: int) -> str | None:
        """The name of the square (f, g): dom -> cod, or None."""
        index, fst, snd = self._index, self.fst, self.snd
        for h in self._hom.get((dom, cod), ()):
            if fst[index[h]] == f and snd[index[h]] == g:
                return h
        return None

    def compose(self, g: str, f: str) -> str:
        """g after f: from the rows once they are built, else from the legs."""
        if "_rows" in self.__dict__:
            return FinCategory.compose(self, g, f)
        index, fst, snd = self._index, self.fst, self.snd
        if g in index and f in index:
            gi, fi = index[g], index[f]
            mg, mf = self.morphisms[gi], self.morphisms[fi]
            if mg.dom == mf.cod:
                a = self.A._composite(fst[gi], fst[fi])
                b = self.B._composite(snd[gi], snd[fi])
                h = self._square(mf.dom, mg.cod, a, b)
                if h is not None:
                    return h
        raise EngineError(
            f"{self.name}: composition table has no entry for ({g!r}, {f!r})"
        )

    def _square_rows(self) -> list[array]:
        """The composition rows, read off A's and B's.

        The row of (f2, g2): x2 -> y2 runs over the in-list of x2, the
        squares (f1, g1): x1 -> x2, and its entry is the square (f2 f1,
        g2 g1): x1 -> y2, found by its key.  at[x sx + y sy + (f + 1) nb + g
        + 1] is the square (f, g): x -> y; with f + 1 and g + 1 as digits, f
        or g = -1 (a missing composite) gives a key that names no square.
        into[x2] holds each (f1, g1) as (x1 sx + nb + 1, place of f1, place
        of g1).  The rows of A, times nb, and of B are read once into lists,
        which index faster than arrays.  At the first entry that names no
        square, a composite that A or B lacks raises by name; otherwise the
        composite square does not commute.
        """
        A, B, fst, snd, dom = self.A, self.B, self.fst, self.snd, self._dom
        nb = len(B.morphisms) + 1
        sy = (len(A.morphisms) + 1) * nb
        sx = len(self.objects) * sy
        at = {
            x * sx + y * sy + (f + 1) * nb + g + 1: k
            for k, (x, y, f, g) in enumerate(zip(dom, self._cod, fst, snd))
        }
        into = [
            [(dom[k] * sx + nb + 1, A._pos[fst[k]], B._pos[snd[k]]) for k in ks]
            for ks in self._in
        ]
        a_rows = [[fa * nb for fa in r.tolist()] for r in A._rows]
        b_rows = [r.tolist() for r in B._rows]
        out = []
        for k, (f2, g2, x2, y2) in enumerate(zip(fst, snd, dom, self._cod)):
            ra, rb, y = a_rows[f2], b_rows[g2], y2 * sy
            row = [at.get(x + y + ra[pa] + rb[pb], -1) for x, pa, pb in into[x2]]
            if -1 in row:
                j = self._in[x2][row.index(-1)]
                _after(A, f2, fst[j])
                _after(B, g2, snd[j])
                raise EngineError(
                    f"{self.name}: {self._names[k]} after {self._names[j]} "
                    "is not a commuting square"
                )
            out.append(array("h", row))
        return out


class CommaCategory(NamedTuple):
    """A materialized comma category.  A morphism's components (f, g) are
    its images under `forget1` and `forget2`."""

    category: CommaTable
    left: FunctorData
    right: FunctorData
    obj_data: dict[str, tuple[str, str, str]]
    forget1: FunctorData
    forget2: FunctorData


def build_comma(alpha: FunctorData, beta: FunctorData, name: str | None = None) -> CommaCategory:
    """Materialize the comma category of the cospan (alpha, beta); refuses
    one of more than MAX_COMMA_OBJECTS objects or MAX_COMMA_MORPHISMS
    morphisms before it names a morphism.

    When A, B and C pass `validate_category` and alpha and beta pass
    `check_functor`, read through the reports that `validated` and
    `checked` keep, the category composes from the legs of its squares
    (see `CommaTable`) and builds its rows only for a reader of the whole
    table.  Neither can fail then: A and B have every composite, and the
    composite of two squares commutes because alpha and beta preserve
    composition and C is associative.  Otherwise the rows are built at
    once, and a composite that A or B lacks, or a composite square that
    does not commute, raises.
    """
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

    # Each square, named once, with its legs kept as indices into A and B.
    morphisms: list[Mor] = []
    fst: dict[str, str] = {}
    snd: dict[str, str] = {}
    legs_a, legs_b = array("h"), array("h")
    for xy, found in enumerate(squares):
        if not found:
            continue
        x, y = divmod(xy, len(objects))
        for f, g in found:
            mid = comma_mor(A._names[f], B._names[g], objects[x], objects[y])
            morphisms.append(Mor(mid, objects[x], objects[y]))
            legs_a.append(f)
            legs_b.append(g)
            fst[mid] = A._names[f]
            snd[mid] = B._names[g]

    identity = {}
    for xid, (a, phi, b) in obj_data.items():
        identity[xid] = comma_mor(A.id_of(a), B.id_of(b), xid, xid)

    cat = CommaTable.from_rows(name, objects, morphisms, identity, lambda: cat._square_rows())
    cat.A, cat.B, cat.fst, cat.snd = A, B, legs_a, legs_b
    sound = all(validated(X).ok for X in (A, B, C)) and checked(alpha).ok and checked(beta).ok
    if not sound:
        cat._rows  # built now: a broken table raises here
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
    # Each square (f, g) of S goes to the square (I f, K g) of T between
    # the images of its endpoints, named by T's own string.
    S, T = src.category, dst.category
    im, km = _mor_indices(I), _mor_indices(K)
    mor_map = {}
    for m, f, g in zip(S.morphisms, S.fst, S.snd):
        x, y, f, g = obj_map[m.dom], obj_map[m.cod], im[f], km[g]
        h = T._square(x, y, f, g)
        if h is None:
            raise EngineError(
                f"{T.name}: no comma morphism " + comma_mor(T.A._names[f], T.B._names[g], x, y)
            )
        mor_map[m.name] = h
    return FunctorData(name, S, T, obj_map, mor_map)


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


# ---------------------------------------------------------------------------
# Half right adjoints and isomorphisms, by exhaustive search.


def check_half_right_adjoint(
    T: FunctorData, Tstar: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> NatTransData | None:
    """Comparison transformation making Tstar a pre/post right adjoint of T.

    pre:  some  T.Tstar => Id_Y;   post:  some  Id_Y => T.Tstar.
    """
    comp = compose_functors(T, Tstar)
    idY = identity_functor(T.target)
    if kind == "pre":
        return find_nat_trans(comp, idY, budget)
    if kind == "post":
        return find_nat_trans(idY, comp, budget)
    raise EngineError(f"unknown adjoint kind {kind!r}")


def search_half_right_adjoint(
    T: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> tuple[FunctorData, NatTransData] | None:
    """Exhaustively search for a pre/post right adjoint of T, or None."""
    for cand in enumerate_functors(T.target, T.source, budget):
        nt = check_half_right_adjoint(T, cand, kind, budget)
        if nt is not None:
            return cand._replace(name=f"{kind}-radj[{T.name}]"), nt
    return None


def find_iso(C: FinCategory, a: str, b: str) -> tuple[str, str] | None:
    """An isomorphism pair (f: a->b, g: b->a), or None."""
    for f in C.hom(a, b):
        for g in C.hom(b, a):
            if C.compose(g, f) == C.id_of(a) and C.compose(f, g) == C.id_of(b):
                return f, g
    return None
