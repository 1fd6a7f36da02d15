"""Model file parsing, canonical serialization, and setup construction."""

import hashlib
import itertools
import random
import time

import pytest

from nullkan.construct import BUILTIN_NAMES, builtin_model, main_null
from nullkan.fincat import EngineError
from nullkan.specfile import (
    SpecDocument,
    SpecError,
    from_setup,
    parse_spec,
    serialize_spec,
    to_setup,
)
from test_cli import load_specgen

MINIMAL = """version: 1

category P
  object P0
  morphism id:P0 P0 P0
  identity P0 id:P0
end

functor idP P P
  obj P0 P0
end

carriers gam P
  carrier P0 u
end

nullity n0
  carrier u
end

setup
  base P
  inter P
  main P
  j2 idP
  j1 idP
  pi idP
  gamma gam
  basenull P0 n0
end
"""


def test_minimal_document_round_trips():
    doc = parse_spec(MINIMAL)
    assert serialize_spec(doc) == MINIMAL
    s = to_setup(doc, "tiny")
    assert s.main.objects == ("P0",)
    assert main_null(s)["P0"].is_trivial()


def test_shipped_specs_round_trip(specs_dir):
    files = sorted(specs_dir.glob("*.spec"))
    assert len(files) >= 3
    for f in files:
        text = f.read_text()
        assert serialize_spec(parse_spec(text)) == text, f.name


def test_model_shortcut():
    doc = parse_spec("version: 1\nmodel: f2_proper\n")
    assert doc.model == "f2_proper"
    assert to_setup(doc).name == "f2_proper"
    with pytest.raises(SpecError, match="unknown builtin"):
        parse_spec("version: 1\nmodel: nope\n")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_survive_the_file_format(name):
    s = builtin_model(name)
    text = serialize_spec(from_setup(s))
    doc = parse_spec(text)
    assert serialize_spec(doc) == text
    s2 = to_setup(doc, name)
    a, b = main_null(s), main_null(s2)
    for V in s.main.objects:
        assert a[V].carrier.elements == b[V].carrier.elements
        assert a[V].masks == b[V].masks


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nversion: 1\n  # indented comment\nmodel: identity\n"
    doc = parse_spec(text)
    assert doc.model == "identity"
    # canonical form drops them
    assert serialize_spec(doc) == "version: 1\nmodel: identity\n"


def test_null_lines_are_closed_downward():
    text = MINIMAL.replace(
        "carriers gam P\n  carrier P0 u\n",
        "carriers gam P\n  carrier P0 u v\n",
    ).replace(
        "nullity n0\n  carrier u\n",
        "nullity n0\n  carrier u v\n  null u v\n",
    )
    s = to_setup(parse_spec(text), "closed")
    assert s.base_null["P0"].is_full()


CAT = "version: 1\ncategory C\n  object x\n  morphism i x x\n  morphism f x x\n"


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("", 1, "missing setup block"),
        ("version: 1\n", 2, "missing setup block"),
        ("version: 2\n", 1, "unsupported format version"),
        # str.isdigit() accepts a superscript two, which int() refuses
        ("version: \u00b2\n", 1, "version takes a single integer"),
        ("model: identity\n", 2, "missing version line"),
        ("model: identity\nversion: 1\n", 2, "version must be the first"),
        ("version: 1\nversion: 1\n", 2, "version must be the first"),
        ("version: 1\nwat\n", 2, "unknown directive"),
        ("version: 1\ncategory C\n", 3, "unterminated category block"),
        ("version: 1\ncategory C\n  object x\n  object x\nend\n", 4, "duplicate object"),
        (
            "version: 1\ncategory C\n  morphism f x x\nend\n",
            3,
            "dangling reference: object 'x'",
        ),
        (
            "version: 1\ncategory C\n  object x\n  morphism f x x\n  compose f g f\nend\n",
            5,
            "dangling reference: morphism 'g'",
        ),
        (
            "version: 1\ncategory C\nend\nfunctor F C D\n",
            4,
            "dangling reference: category 'D'",
        ),
        ("version: 1\nnullity n\n  null x\nend\n", 3, "null line before the carrier"),
        ("version: 1\nnullity n\nend\n", 3, "has no carrier line"),
        (
            "version: 1\nsetup\n  base B\nend\n",
            3,
            "dangling reference: category 'B'",
        ),
        (
            "version: 1\nmodel: identity\ncategory C\nend\nsetup\nend\n",
            7,
            "cannot also declare blocks",
        ),
        (CAT + "  morphism f x x\nend\n", 6, "duplicate morphism 'f'"),
        (CAT + "  identity x i\n  identity x f\nend\n", 7, "duplicate identity for 'x'"),
        (CAT + "  compose f f f\n  compose f f i\nend\n", 7, "duplicate composition for (f, f)"),
        (CAT + "end\nfunctor F C C\n  obj x y\n", 8, "object 'y' not in C"),
        (CAT + "end\nfunctor F C C\n  obj x x\n  obj x x\n", 9, "duplicate obj line for 'x'"),
        (CAT + "end\nfunctor F C C\n  mor g f\n", 8, "morphism 'g' not in C"),
        (CAT + "end\nfunctor F C C\n  mor f f\n  mor f i\n", 9, "duplicate mor line for 'f'"),
        (CAT + "end\ncarriers g C\n  carrier y u\n", 8, "object 'y' not in C"),
        (CAT + "end\ncarriers g C\n  carrier x u\n  carrier x v\n", 9, "duplicate carrier line"),
        (CAT + "end\ncarriers g C\n  map i\n  map i\n", 9, "duplicate map line for 'i'"),
        (
            CAT + "end\nnullity n\n  carrier u\nend\nsetup\n  basenull x n\n  basenull x n\n",
            12,
            "duplicate basenull line for 'x'",
        ),
        (CAT + "end\ncarriers g C\n  carrier x u u\n", 8, "carrier elements must be distinct"),
        (CAT + "end\ncarriers g C\n  map i x>x x\n", 8, "bad element pair 'x' (want a>b)"),
        ("version: 1\nnullity n\n  carrier u u\n", 3, "carrier elements must be distinct"),
        # a header of the wrong length, and a second block of one name
        ("version: 1\ncategory C D\n", 2, "category takes a single name"),
        ("version: 1\ncategory C\nend\nfunctor F C\n", 4, "functor takes name, source, target"),
        ("version: 1\ncategory C\nend\ncarriers g\n", 4, "carriers takes name and category"),
        ("version: 1\nnullity\n", 2, "nullity takes a single name"),
        ("version: 1\nsetup s\n", 2, "setup takes no arguments"),
        ("version: 1\ncategory C\nend\ncategory C\n", 4, "duplicate category 'C'"),
        (
            "version: 1\ncategory C\nend\nfunctor F C C\nend\nfunctor F C C\n",
            6,
            "duplicate functor 'F'",
        ),
        (
            "version: 1\ncategory C\nend\ncarriers g C\nend\ncarriers g C\n",
            6,
            "duplicate carriers block 'g'",
        ),
        (
            "version: 1\nnullity n\n  carrier u\nend\nnullity n\n",
            5,
            "duplicate nullity 'n'",
        ),
        ("version: 1\nsetup\nend\nsetup\n", 4, "duplicate setup block"),
        # ids are per block: a second category may reuse them
        (CAT + "end\ncategory D\n  object x\n  morphism f x x\nend\n", 11, "missing setup"),
    ],
)
def test_parse_errors_carry_locations(text, line, message):
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.line == line
    assert message in exc.value.reason


def transformation_monoid_spec(points: int) -> str:
    """Canonical spec text: the monoid of all maps on `points` points as a
    one-object main category, wired by identity."""
    elems = sorted(itertools.product(range(points), repeat=points))
    ident = tuple(range(points))
    name = {f: "id:P0" if f == ident else "m" + "".join(map(str, f)) for f in elems}
    maps = [f for f in elems if f != ident]
    carrier = " ".join(f"p{i}" for i in range(points))
    lines = ["version: 1", "", "category P", "  object P0"]
    lines += [f"  morphism {name[f]} P0 P0" for f in elems]
    lines.append("  identity P0 id:P0")
    lines += [
        f"  compose {name[g]} {name[f]} {name[tuple(g[i] for i in f)]}"
        for g in maps
        for f in maps
    ]
    lines += ["end", "", "functor idP P P", "  obj P0 P0"]
    lines += [f"  mor {name[f]} {name[f]}" for f in maps]
    lines += ["end", "", "carriers gam P", f"  carrier P0 {carrier}"]
    lines += [
        f"  map {name[f]} " + " ".join(f"p{i}>p{j}" for i, j in enumerate(f)) for f in maps
    ]
    lines += ["end", "", "nullity n0", f"  carrier {carrier}", "  null", "end", ""]
    lines += ["setup", "  base P", "  inter P", "  main P", "  j2 idP", "  j1 idP"]
    lines += ["  pi idP", "  gamma gam", "  basenull P0 n0", "end"]
    return "\n".join(lines) + "\n"


def test_large_spec_parses_in_linear_time():
    # 65,025 compose lines; every per-line check must be a lookup.
    text = transformation_monoid_spec(4)
    t0 = time.perf_counter()
    assert serialize_spec(parse_spec(text)) == text
    assert time.perf_counter() - t0 < 10


def test_to_setup_requires_complete_functors():
    text = MINIMAL.replace("category P\n  object P0\n  morphism id:P0 P0 P0\n  identity P0 id:P0\nend",
                           "category P\n  object P0\n  morphism id:P0 P0 P0\n  morphism e P0 P0\n  identity P0 id:P0\n  compose e e e\nend")
    with pytest.raises(EngineError, match="missing mor 'e'"):
        to_setup(parse_spec(text), "gap")


def test_to_setup_requires_gamma_coverage():
    text = MINIMAL.replace("carriers gam P\n  carrier P0 u\nend", "carriers gam P\nend")
    with pytest.raises(EngineError, match="missing a carrier"):
        to_setup(parse_spec(text), "gap")


@pytest.mark.parametrize(
    "pairs,message",
    [
        ("x0>x0 x1>x0 zz>x1", "gamma map 'e' names 'zz', not in the carrier of 'P0'"),
        ("x0>x0 x1>x0 x0>x1", "gamma map 'e' gives element 'x0' twice"),
        ("x0>x0 x1>zz", "gamma map 'e' sends 'x1' to 'zz', not in the carrier of 'P0'"),
        ("x0>x0", "gamma map 'e' gives no image for 'x1'"),
    ],
)
def test_to_setup_rejects_bad_map_sources(pairs, message):
    text = MINIMAL.replace(
        "category P\n  object P0\n  morphism id:P0 P0 P0\n  identity P0 id:P0\nend",
        "category P\n  object P0\n  morphism id:P0 P0 P0\n  morphism e P0 P0\n"
        "  identity P0 id:P0\n  compose e e e\nend",
    ).replace("  obj P0 P0\n", "  obj P0 P0\n  mor e e\n").replace(
        "carriers gam P\n  carrier P0 u\nend",
        f"carriers gam P\n  carrier P0 x0 x1\n  map e {pairs}\nend",
    ).replace("nullity n0\n  carrier u\n", "nullity n0\n  carrier x0 x1\n")
    with pytest.raises(EngineError, match=message):
        to_setup(parse_spec(text), "bad_map")


def test_to_setup_checks_nullity_carrier_match():
    text = MINIMAL.replace("nullity n0\n  carrier u\nend", "nullity n0\n  carrier w\nend")
    with pytest.raises(EngineError, match="does not match"):
        to_setup(parse_spec(text), "gap")


def test_to_setup_requires_basenull_everywhere():
    text = MINIMAL.replace("  basenull P0 n0\n", "")
    with pytest.raises(EngineError, match="missing basenull"):
        to_setup(parse_spec(text), "gap")


def test_from_setup_emits_no_identity_noise():
    text = serialize_spec(from_setup(builtin_model("identity")))
    assert "mor id:" not in text
    assert "compose id:" not in text
    doc = parse_spec(text)
    assert to_setup(doc, "x").main.objects == ("o",)


def test_document_defaults():
    doc = SpecDocument(model="identity")
    assert serialize_spec(doc) == "version: 1\nmodel: identity\n"


# Every keyword the grammar knows, and one it does not.
KEYWORDS = (
    "version:", "model:", "category", "functor", "carriers", "nullity", "setup", "end",
    "object", "morphism", "identity", "compose", "obj", "mor", "carrier", "map", "null",
    "base", "inter", "main", "j2", "j1", "pi", "gamma", "basenull", "wat",
)
# Tokens a mutation may insert besides the file's own.
STRAY_TOKENS = ("zz", "a>b", "a>b>c", "x>")


def mutate(text: str, rng) -> str:
    """`text` with one line deleted, duplicated, moved or swapped, or one
    token of a line replaced, dropped or inserted, or its keyword replaced."""
    lines = text.splitlines()
    words = [i for i, line in enumerate(lines) if line.strip()]
    pool = sorted({t for line in lines for t in line.split()}) + list(STRAY_TOKENS)
    i, j = rng.choice(words), rng.randrange(len(lines) + 1)
    op = rng.randrange(8)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(j, lines[i])
    elif op == 2:
        lines.insert(j, lines.pop(i))
    elif op == 3:
        j = min(j, len(lines) - 1)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        toks = lines[i].split()
        k = rng.randrange(len(toks))
        if op == 4:
            toks[k] = rng.choice(pool)
        elif op == 5:
            del toks[k]
        elif op == 6:
            toks.insert(k + 1, rng.choice(pool))
        else:
            toks[0] = rng.choice(KEYWORDS)
        lines[i] = indent + " ".join(toks)
    return "\n".join(lines) + "\n"


def mutant_corpus(specs_dir):
    """100 seeded one-line mutants of each shipped spec and of the specgen
    specs of seeds 0-4."""
    texts = [f.read_text() for f in sorted(specs_dir.glob("*.spec"))]
    for seed in range(5):
        texts += load_specgen().generate(seed, 2)
    rng = random.Random(0)
    return [mutate(text, rng) for text in texts for _ in range(100)]


def load_outcome(text: str) -> str:
    """The parse error, or the canonical text and what `to_setup` makes of it."""
    try:
        doc = parse_spec(text)
    except SpecError as e:
        return f"{e.line} {e.reason}"
    try:
        built = serialize_spec(from_setup(to_setup(doc, "mutant")))
    except EngineError as e:
        built = f"error: {e}"
    return f"{serialize_spec(doc)}\n{built}"


def test_mutant_corpus_outcomes_are_pinned(specs_dir):
    corpus = mutant_corpus(specs_dir)
    assert len(corpus) == 1300
    pinned = hashlib.sha256()
    for text in corpus:
        pinned.update(f"{load_outcome(text)}\0".encode())
    assert pinned.hexdigest() == "2fb12acd3b801f55a69456327bb698dbd974632df72c4240c5400e3f133b3c93"
