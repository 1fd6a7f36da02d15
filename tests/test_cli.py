"""Command line surface: exit codes, report shapes, determinism."""

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import census
import pytest
from census import load_specgen

import nullkan
import nullkan.fincat
from nullkan.cli import main
from nullkan.fincat import EngineError
from nullkan.specfile import parse_spec, to_setup

BIG = """version: 1

category D
  object X
  object Y
  morphism id:X X X
  morphism id:Y Y Y
  identity X id:X
  identity Y id:Y
end

functor idD D D
  obj X X
  obj Y Y
end

carriers g D
  carrier X e0 e1 e2 e3
  carrier Y f0 f1 f2 f3
end

nullity nX
  carrier e0 e1 e2 e3
end

nullity nY
  carrier f0 f1 f2 f3
end

setup
  base D
  inter D
  main D
  j2 idD
  j1 idD
  pi idD
  gamma g
  basenull X nX
  basenull Y nY
end
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# A child keeps the peak RSS of the process it was started from until it
# execs, and os.wait4 reports the larger of the two; so a fresh interpreter,
# not this one, starts the command and reports its usage.
MEASURE = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


def run_child(*argv, stderr=subprocess.DEVNULL):
    """Exit code, CPU seconds and peak RSS in MB of `python -m nullkan *argv`."""
    return measured([sys.executable, "-m", "nullkan", *argv], stderr)


def measured(cmd, stderr=subprocess.DEVNULL):
    """Exit code, CPU seconds and peak RSS in MB of the child process `cmd`."""
    src = str(Path(nullkan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code, cpu, rss = subprocess.run(
        [sys.executable, "-c", MEASURE, *cmd],
        env=env,
        stdout=subprocess.PIPE,
        stderr=stderr,
        check=True,
        text=True,
    ).stdout.split()
    return int(code), float(cpu), int(rss) / 1024  # ru_maxrss is in KiB on Linux


def identity_wired_spec(objects, arrows=(), compositions=(), elements=("p",)):
    """A spec wired by identity (base = inter = main) on one category: the
    `objects` with their identities, the `arrows` (name, dom, cod), the
    `compositions` (g, f, gf) among them, `elements` as every object's
    carrier with identity maps, and the trivial base family."""
    lines = ["version: 1", "", "category D"]
    lines += [f"  object {x}" for x in objects]
    lines += [f"  morphism id:{x} {x} {x}" for x in objects]
    lines += [f"  morphism {a} {d} {c}" for a, d, c in arrows]
    lines += [f"  identity {x} id:{x}" for x in objects]
    lines += [f"  compose {g} {f} {gf}" for g, f, gf in compositions]
    lines += ["end", "", "functor idD D D"]
    lines += [f"  obj {x} {x}" for x in objects]
    lines += [f"  mor {a} {a}" for a, _, _ in arrows]
    lines += ["end", "", "carriers g D"]
    lines += [f"  carrier {x} " + " ".join(elements) for x in objects]
    lines += [f"  map {a} " + " ".join(f"{e}>{e}" for e in elements) for a, _, _ in arrows]
    lines += ["end", "", "nullity n0", "  carrier " + " ".join(elements), "end", "", "setup"]
    lines += [f"  {key} D" for key in ("base", "inter", "main")]
    lines += [f"  {key} idD" for key in ("j2", "j1", "pi")]
    lines += ["  gamma g", *(f"  basenull {x} n0" for x in objects), "end"]
    return "\n".join(lines) + "\n"


def test_validate_pass(capsys):
    code, out, err = run(capsys, "validate", "--model", "f2_proper")
    assert code == 0
    assert "status: pass" in out
    assert err == ""


def test_construct_json_payload(capsys):
    code, out, _ = run(capsys, "construct", "--model", "f2_proper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["assignment"]["F2^1"]["null"] == [[], ["0"], ["1"]]
    assert payload["input_digest"].startswith("sha256:")
    assert payload["seed"] == 0
    assert "timestamp" not in out


def test_reports_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "check", "ext", "--model", "identity", "--json", "--out", str(a))[0] == 0
    assert run(capsys, "check", "ext", "--model", "identity", "--json", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "validate", "--model", "identity", "--json", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["status"] == "pass"


def test_unwritable_out_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "construct", "--model", "identity", "--json", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.parent.exists()


def test_negative_budget_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "ext", "--model", "f2_proper", "--budget", "-1"])
    assert exc.value.code == 2
    assert "--budget: must be 0 or more, not -1" in capsys.readouterr().err
    code, out, _ = run(capsys, "check", "ext", "--model", "f2_proper", "--budget", "0", "--json")
    assert code == 0 and json.loads(out)["budget"] == 0


def test_check_commands_pass_on_covered_models(capsys):
    assert run(capsys, "check", "thm1", "--model", "f2_proper")[0] == 0
    assert run(capsys, "check", "thm3", "--model", "f2_trivial")[0] == 0
    assert run(capsys, "check", "ext", "--model", "f2_proper")[0] == 0


def test_extension_failure_is_exit_one(capsys):
    code, out, _ = run(capsys, "check", "ext", "--model", "f2_trivial", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["extension"]["hypothesis_met"] is False


def test_lemma_suite_report(capsys):
    code, out, _ = run(capsys, "check", "lemmas", "--model", "identity", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["lemmas"]) == {
        "precompose_invariance",
        "comma_inherits_adjoint",
        "kan_restrict_source",
        "kan_after_composite",
        "kan_square",
    }
    assert payload["setup_adjoints"]["pi_star_right_inverse"]["present"] is True


def test_oracle_and_materialize(capsys):
    assert run(capsys, "oracle-compare", "--model", "injections_card_1")[0] == 0
    code, out, _ = run(capsys, "materialize", "--model", "f2_proper")
    assert code == 0
    assert "materialized:" in out


def test_spec_file_input(specs_dir, capsys):
    code, out, _ = run(capsys, "construct", "--spec", str(specs_dir / "idempotent.spec"))
    assert code == 0
    assert "P0: {} {u} {v}" in out
    code, _, _ = run(capsys, "check", "thm3", "--spec", str(specs_dir / "idempotent.spec"))
    assert code == 1


def test_model_shortcut_spec_matches_builtin(specs_dir, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--spec", str(specs_dir / "f2_proper_model.spec"), "--json", "--out", str(a))
    run(capsys, "construct", "--model", "f2_proper", "--json", "--out", str(b))
    assert json.loads(a.read_text())["assignment"] == json.loads(b.read_text())["assignment"]


def test_minimality_guard_is_exit_three(tmp_path, capsys):
    spec = tmp_path / "big.spec"
    spec.write_text(BIG)
    code, out, _ = run(capsys, "check", "thm3", "--spec", str(spec), "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "budget-exceeded"
    assert "candidate space" in payload["budget_error"]


def test_unknown_model_is_input_error(capsys):
    code, out, err = run(capsys, "validate", "--model", "nope")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("name", ["injections_card_00", "injections_card_\u0660"])
def test_builtin_names_are_exact(name, tmp_path, capsys):
    # An extra zero, or an Arabic-Indic zero, does not name injections_card_0.
    code, _, err = run(capsys, "construct", "--model", name)
    assert code == 2
    assert err.startswith(f"error: unknown builtin model {name!r}")
    spec = tmp_path / "m.spec"
    spec.write_text(f"version: 1\nmodel: {name}\n", encoding="utf-8")
    code, _, err = run(capsys, "construct", "--spec", str(spec))
    assert code == 2
    assert err == f"error: line 2: unknown builtin model {name!r}\n"


def test_materialize_validates_the_comma_categories_it_builds(tmp_path, capsys):
    # Arr of an 11-chain has 66 objects: within the comma bounds, though
    # above the 64 objects a spec category may declare.
    objs = [f"c{i}" for i in range(11)]
    le = {(i, j): f"le{i}_{j}" for i in range(11) for j in range(i + 1, 11)}
    spec = tmp_path / "chain11.spec"
    spec.write_text(
        identity_wired_spec(
            objs,
            [(a, objs[i], objs[j]) for (i, j), a in le.items()],
            [(le[j, k], le[i, j], le[i, k]) for i, j in le for k in range(j + 1, 11)],
        )
    )
    code, out, _ = run(capsys, "materialize", "--spec", str(spec), "--json")
    assert code == 0
    comma = json.loads(out)["comma"]
    assert sorted(comma) == ["arrow_base", "comma_inter", "comma_main", "comma_probe"]
    for label, row in comma.items():
        assert (row["objects"], row["morphisms"], row["ok"]) == (66, 1716, True), label


def over_bounds():
    """Case -> (spec text, its refusal) for a 5-element carrier, a category
    of 65 objects, one of 8,193 morphisms, and two distinct 3-element
    carriers, whose nullity category has 20,268 morphisms."""
    five = identity_wired_spec(["X"], elements=tuple("abcde"))
    many_objects = identity_wired_spec([f"x{i}" for i in range(65)])
    # Two identities and 8,191 parallel arrows, none composable.
    many_arrows = identity_wired_spec(["X", "Y"], [(f"a{i}", "X", "Y") for i in range(8191)])
    return {
        "carrier5": (five, "Set[g]: 9765625 composition entries exceed bound 1048576"),
        "objects65": (
            many_objects,
            f"line {many_objects.splitlines().index('  object x64') + 1}: "
            "category 'D' has more than 64 objects",
        ),
        "morphisms8193": (
            many_arrows,
            f"line {many_arrows.splitlines().index('  morphism a8190 X Y') + 1}: "
            "category 'D' has more than 8192 morphisms",
        ),
        "two3": (
            BIG.replace("e0 e1 e2 e3", "a b c").replace("f0 f1 f2 f3", "d e f"),
            "Null[over]: 20268 morphisms exceeds bound 8192",
        ),
    }


@pytest.mark.parametrize(
    "command,case",
    [
        (command, case)
        for command in ("construct", "validate")
        for case in ("carrier5", "morphisms8193", "objects65")
    ]
    + [("materialize", "two3")],
)
def test_inputs_over_the_bounds_are_refused_at_once(command, case, tmp_path):
    # A 5-element carrier took 10.7 s of CPU and 519 MB to validate, and a
    # 6-element one went past 7 GB; materialize built all 20,268 rows of
    # two3 (1.3 s, 105 MB) before it counted them.  Each is now refused
    # before that work.
    text, message = over_bounds()[case]
    spec = tmp_path / "over.spec"
    spec.write_text(text)
    err = tmp_path / "err.txt"
    with err.open("w") as fh:
        code, cpu, rss = run_child(command, "--spec", str(spec), stderr=fh)
    assert code == 2
    assert err.read_text() == f"error: {message}\n"
    assert cpu < 1.0
    assert rss < 60


def test_parse_error_location_reaches_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("version: 1\nwat\n")
    code, _, err = run(capsys, "validate", "--spec", str(bad))
    assert code == 2
    assert "line 2" in err


def test_non_ascii_version_digit_is_input_error(tmp_path):
    # A superscript two passes str.isdigit() but not int(): the file is
    # refused with its line, not crashed on with a traceback.
    spec = tmp_path / "v.spec"
    spec.write_text("version: \u00b2\n", encoding="utf-8")
    err = tmp_path / "err.txt"
    with err.open("w") as fh:
        code, _, _ = run_child("validate", "--spec", str(spec), stderr=fh)
    assert code == 2
    assert err.read_text() == "error: line 1: version takes a single integer\n"


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--spec", str(tmp_path / "absent.spec"))
    assert code == 2
    assert "error:" in err


def test_target_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


# sha256 of the --json report and the exit code of each command on each
# builtin and shipped spec.  materialize on injections_card_1 and _2 is left
# out: it does the same work as on injections_card_0.
PINNED = [
    ("validate", "identity", 0, "18323d7cf4ffbde5ab26c1f664e99d8339d05fc0df75201900a21401a7b6a3ca"),
    ("validate", "f2_trivial", 0, "666e336ba3a4fa13a00d4f68728f8e08d9de7539a848bca58620d19b844b7539"),
    ("validate", "f2_proper", 0, "833674554fe212958fb3e4307b1afab2708bb9a6ce7f07326abab6293d3755be"),
    ("validate", "injections_card_0", 0, "83a9e7aac2dd63d6802c41b293374e3fede9fc6d745de9599a72385bc14244a0"),
    ("validate", "injections_card_1", 0, "cf404ca0d3fc976b40d1487bd48cd639e79a438fb6c524f0305f46b541c448ff"),
    ("validate", "injections_card_2", 0, "866839793e7a735902f854e820457dd05687638b9ed60292047ee2410c0b147d"),
    ("validate", "f2_proper.spec", 0, "d8da283a3fe10ef2b4ff2c77b26777b04de974315e9bacd9e4545802ae9538cb"),
    ("validate", "f2_proper_model.spec", 0, "833674554fe212958fb3e4307b1afab2708bb9a6ce7f07326abab6293d3755be"),
    ("validate", "idempotent.spec", 0, "fe5469b6c2bf52300078eeb97e35a1b340b162d2a6d6084ae87c5e6811985350"),
    ("construct", "identity", 0, "6560084b01844a8dfcbf1a87a80715242a65debcdbfbe151ea42023e3fca6235"),
    ("construct", "f2_trivial", 0, "898b773813c747d07b9ca7dea92c3dd15207faa4fffea2a1c0c4d38009007275"),
    ("construct", "f2_proper", 0, "c9d9eb91eaa0a1d24ca870b5c38a207483994a08c17a311f3e5bed1cf1dcada6"),
    ("construct", "injections_card_0", 0, "37f31c7a0fff91d7368e87ddda036482e1fbcf3627975f1340a9749583aed308"),
    ("construct", "injections_card_1", 0, "c43566168ca5205215ece687451bcfc0259f2519e22dc998bf54cfe4277f7a69"),
    ("construct", "injections_card_2", 0, "23bb0aadda589b188d5cf7fb67b11da3806b0865a53119b30d3508302f16e64c"),
    ("construct", "f2_proper.spec", 0, "08252f259090ff3ee112c782d6dd8b7a29f0a2fc0bf7e4b9726dd9fa11f0ab38"),
    ("construct", "f2_proper_model.spec", 0, "c9d9eb91eaa0a1d24ca870b5c38a207483994a08c17a311f3e5bed1cf1dcada6"),
    ("construct", "idempotent.spec", 0, "18e3a35acddd517a9505f2ec8b628ee46febb9e95dbb613d09ea4efb2f9bcae1"),
    ("check thm1", "identity", 0, "e111f64cafa1c4788946c201683e8092d9d23747ffa93f88e6dbbf39f686860c"),
    ("check thm1", "f2_trivial", 0, "6f8a2530aed614af21a6a40e03f4ddbfecc45279867a3256f9913a1936242da6"),
    ("check thm1", "f2_proper", 0, "c9d0b3ef425a915b2544d8ce263c008883ddf1ed680cdee5248595edf0b541e1"),
    ("check thm1", "injections_card_0", 0, "c6d7a507d549501cd8ade49be78d24248b2742254d680895e3056b9350187091"),
    ("check thm1", "injections_card_1", 0, "d2a2eb4e81547dd63b7bb0b9e215f74b9ff9900db7dc1383be33183f00fbbb50"),
    ("check thm1", "injections_card_2", 0, "a42ee69b7ab5f42790a8338c809f0278f6f16d7b0f1c416069fe6db2f237ccc0"),
    ("check thm1", "f2_proper.spec", 0, "8e2239f3ee766d28e9eee209bcce5d5c1bc33f4eb3aff1bcb0045b3473f9d898"),
    ("check thm1", "f2_proper_model.spec", 0, "c9d0b3ef425a915b2544d8ce263c008883ddf1ed680cdee5248595edf0b541e1"),
    ("check thm1", "idempotent.spec", 0, "d0e1de2441bb29e040dd54b933a1a5e1be943bb5a01ca9bc25f5c513ec61d9f6"),
    ("check thm3", "identity", 0, "6ac385622445a2e4bb6a7a35aefca60c5ebc6f485885ce9d9830a4894fcb52e5"),
    ("check thm3", "f2_trivial", 0, "f40c248ea1e19457ce2bdb8edbafdc3e49605f8597b4c5bab4d5bb382f6ac1df"),
    ("check thm3", "f2_proper", 1, "3ca6b902743c275c5e014a4b1e4372d5b61be6e81b12cacb31b2380a082e880b"),
    ("check thm3", "injections_card_0", 1, "da2e0cdd4646e8d359a554b814508a40cf2265df00ed41000424bed10adf5c01"),
    ("check thm3", "injections_card_1", 1, "de2ce79f2763ceaabb7201a66bae340bfa1baa574496be399634a70a5259b008"),
    ("check thm3", "injections_card_2", 1, "dc760b1bd1342709e3939392c2da1aeeb3b691deadab4ef5efb254127f3466e1"),
    ("check thm3", "f2_proper.spec", 1, "704cbf4db01d056569a1bb24d81f0e1df586fefcd0253a9840a5afeaf5409e8b"),
    ("check thm3", "f2_proper_model.spec", 1, "3ca6b902743c275c5e014a4b1e4372d5b61be6e81b12cacb31b2380a082e880b"),
    ("check thm3", "idempotent.spec", 1, "dc9b072d4b60059b446057f25c668170c60cd0d857c161f9350ee6db5ba9bd24"),
    ("check ext", "identity", 0, "28fedbe5b68614aaa2b1d470c2ebf34be5e2321c341bc049b802a3ca6fb1c326"),
    ("check ext", "f2_trivial", 1, "ba37a920df393abdae87053d2bd12bc73422204a06fe8cf901becccf2d868d2d"),
    ("check ext", "f2_proper", 0, "14935ba3af3dd9650d514a64fb70a5dbe6dde44bbf338493ff0d03ef056bcd88"),
    ("check ext", "injections_card_0", 1, "9289474edf8f11c33b36559b91dc6de7a041bec4c4d1f9b2a3c4076defa317be"),
    ("check ext", "injections_card_1", 1, "7481c822a7562b4932cc5e1dc75436c7a8024a7927e8722005af934bf890d050"),
    ("check ext", "injections_card_2", 1, "273d0c8f34e83eb1544a4822f591639b12bac9f030f6416940375790b3e43082"),
    ("check ext", "f2_proper.spec", 0, "1bf634dd4c2e2b44b60364158b0a8918c1b52bda91c282ba7f92a5ac5f656df1"),
    ("check ext", "f2_proper_model.spec", 0, "14935ba3af3dd9650d514a64fb70a5dbe6dde44bbf338493ff0d03ef056bcd88"),
    ("check ext", "idempotent.spec", 1, "7c60f2c005e86df09adc5d0c781d0d81cd3c3646ea5e260953e1836d35d4aa8c"),
    ("check lemmas", "identity", 0, "9bd04960fcd7707a2468ce62f21983b36d259dcff49ce2418ee50113d10caa62"),
    ("check lemmas", "f2_trivial", 0, "225b61c4736def1a2bc0e994e67607efc043d4897735fd0be5a5b8d6b6574cab"),
    ("check lemmas", "f2_proper", 0, "ab039cbb1e64e43c90469ed8700cd21b894b8ebb6ccc6d6ad30d933c82be2373"),
    ("check lemmas", "injections_card_0", 0, "2a134a47a91ecb077cad06c1845bb56ce81f20a2ef5f5e29e25684c33847c6a0"),
    ("check lemmas", "injections_card_1", 0, "4b1834b1a2069880d584ad9f2f4d89c43ac1ae695b5a95afab2e4dea0cfbae45"),
    ("check lemmas", "injections_card_2", 0, "5735fa2d7edb6ee74609e69fa3a8bbec53d9318ef998626fe79e1e28cbe54471"),
    ("check lemmas", "f2_proper.spec", 0, "c6d7c56ba68dcd3a3d89e02bad9adba25d36e19460d2dd01172b97692e9a3a22"),
    ("check lemmas", "f2_proper_model.spec", 0, "ab039cbb1e64e43c90469ed8700cd21b894b8ebb6ccc6d6ad30d933c82be2373"),
    ("check lemmas", "idempotent.spec", 0, "f86e67c192b61a5e4e6ccf75b79c56ebd244ceda5ccd2b51d5b33283e64261ba"),
    ("oracle-compare", "identity", 0, "9cf1d35aba115b9c70125aad6316380b7fe573638a630c8937f8b31348a6c60d"),
    ("oracle-compare", "f2_trivial", 0, "b05ec347d6935aad2cd18ca4d829bdc9eec157199641742314bc8736651f34fb"),
    ("oracle-compare", "f2_proper", 0, "d4fdb41860b0b3544e152793c46f62190a01acb221d1d36f90cb5fd9baa8461b"),
    ("oracle-compare", "injections_card_0", 0, "c9a964555c6944b279f108b3abd35eeccf3823865044294cd05cfea4517268a5"),
    ("oracle-compare", "injections_card_1", 0, "2ebeee8cf48324cbe79a6617d498054174a16c0b6f482c7891b62e1e4ec669bc"),
    ("oracle-compare", "injections_card_2", 0, "d0b64b7fd678e2a104ab36ee0ef594d6a23c903a4a11ba692219bc682e07b65e"),
    ("oracle-compare", "f2_proper.spec", 0, "b7e71d6aeebed06930eca89475584c4974776ef67a1237e15253f13874eb0b9f"),
    ("oracle-compare", "f2_proper_model.spec", 0, "d4fdb41860b0b3544e152793c46f62190a01acb221d1d36f90cb5fd9baa8461b"),
    ("oracle-compare", "idempotent.spec", 0, "e488b19caf7bda4cd07cd7357461a68b8ace92c3fd8af30e523fea9eda3034a1"),
    ("materialize", "identity", 0, "3e72a389e4df03291438b5c273f3c2882ee5f3068f9a80b239f8a47db742c95a"),
    ("materialize", "f2_trivial", 0, "7cbd27518ba3791eda208cd27f59a127d641fdc366b7b9fccbc585948298498e"),
    ("materialize", "f2_proper", 0, "d3737a3b848956fa0d9ffdf7011c14668c21e42f6f883be634d84288af571384"),
    ("materialize", "injections_card_0", 0, "9cebf3d440e35a9246e06539c4a94d60d6bf172fb84c27c761676de6f4487d98"),
    ("materialize", "f2_proper.spec", 0, "1e33a701e883f4b074c978c99aa8cd217ecefa1cc95e5a2bf56a5bc618db72db"),
    ("materialize", "f2_proper_model.spec", 0, "d3737a3b848956fa0d9ffdf7011c14668c21e42f6f883be634d84288af571384"),
    ("materialize", "idempotent.spec", 0, "0b9e2ae11619f4deacf5efa23d004b50bcbe77decef10450e59d9bc9cf4513c3"),
]


# sha256 of the --text report of each pair in PINNED; the exit code is the
# same in both formats.
TEXT_PINNED = {
    ("validate", "identity"): "248741838301a2f38251972b05d5f43f18ed5a01bd7225753e7b3da5e8700308",
    ("validate", "f2_trivial"): "a1f9327a6d78261d25b3ed1fd716c7cafe808317e61c1ee5bcb8f023df6083df",
    ("validate", "f2_proper"): "619325cb5845353b706a6078bc0e34b2125be3b0712fcfbc4d3453ef4a9edd71",
    ("validate", "injections_card_0"): "0b6e4456ad931a561df4e783e7c74d02f42a9016e783290e89b85a67904b526f",
    ("validate", "injections_card_1"): "67ec2d608b9027ec5de445af639c6e38c50e15555608ae33ced5b92ade5faa3a",
    ("validate", "injections_card_2"): "f14d3d262983ed8908147aeccd28e342b12c82bc742406c3feed3a9a95559f81",
    ("validate", "f2_proper.spec"): "619325cb5845353b706a6078bc0e34b2125be3b0712fcfbc4d3453ef4a9edd71",
    ("validate", "f2_proper_model.spec"): "619325cb5845353b706a6078bc0e34b2125be3b0712fcfbc4d3453ef4a9edd71",
    ("validate", "idempotent.spec"): "0b9532e79835db921779a25f3f96dda5fc78681ec86f19d51bb96e651598d6c2",
    ("construct", "identity"): "9754e72ffdf69b73461488b74403e7d0efab7934cb0d4fd700451ce6c463b2ca",
    ("construct", "f2_trivial"): "d402004e734d50052a22089168297743ff7fbdc1643f64a00a211adb344fb340",
    ("construct", "f2_proper"): "d929a965db1e22fafcb63506fd57d0a8ae41f74dac9b4e87d3c3419cb53a1acf",
    ("construct", "injections_card_0"): "5e0437a1dd2320a803878184cf523f28dda1d1c07563c2fe7e018fd40d1871e2",
    ("construct", "injections_card_1"): "38cc4a45a32c4680461dad0a9a0159032a0d9e146ff83f59c97b94a31c756dbf",
    ("construct", "injections_card_2"): "5429649b11f78198444d6873417766d30627bb69fa6912a75a2038d5130cf222",
    ("construct", "f2_proper.spec"): "d929a965db1e22fafcb63506fd57d0a8ae41f74dac9b4e87d3c3419cb53a1acf",
    ("construct", "f2_proper_model.spec"): "d929a965db1e22fafcb63506fd57d0a8ae41f74dac9b4e87d3c3419cb53a1acf",
    ("construct", "idempotent.spec"): "138e81c5b82c981378e1ec51a08aa3999bdc44f94f59f84e3ca05dbf43368f98",
    ("check thm1", "identity"): "1565237e682b55e8e5fcded0a5728e926fc1bba69b1e63a808e86470512acfb4",
    ("check thm1", "f2_trivial"): "2f351f4a00c6e4800956df91fed048f5b689b5cd9a0786c3f3335c3fda1ebbef",
    ("check thm1", "f2_proper"): "7e128e7b6637711d8fdc355bc7e7c0d6dcb0de977ed41b89b7b16847862b0dfe",
    ("check thm1", "injections_card_0"): "3b6fa5cb5498611aec70fb142aaf676eb491f63e753e9524a7b8dfa6a161fa75",
    ("check thm1", "injections_card_1"): "34697212a2f4a11b13ae7249bce2d20fcc28dfa128d4d84ad27c7fef836721ea",
    ("check thm1", "injections_card_2"): "89173d319f22c90ea1ea4205e5977dc19cc8724fecb75e067e9bd0947ea312a3",
    ("check thm1", "f2_proper.spec"): "7e128e7b6637711d8fdc355bc7e7c0d6dcb0de977ed41b89b7b16847862b0dfe",
    ("check thm1", "f2_proper_model.spec"): "7e128e7b6637711d8fdc355bc7e7c0d6dcb0de977ed41b89b7b16847862b0dfe",
    ("check thm1", "idempotent.spec"): "a178c6170f1d24ef362c0c39b13299f06fd1abc27a5e41f02361beb1e9cb171c",
    ("check thm3", "identity"): "40673a0ecd152741c7e0c662f25b2f5bb0f9fdf963b90a71d00c6146f84e632a",
    ("check thm3", "f2_trivial"): "ea7b2a566a6159850c75fd0ce5e86e3b77bad330560abdef83362e964c08f8ad",
    ("check thm3", "f2_proper"): "3b67e43c4e3e1af521171c17ce2558f746babc97b5907c25d3bd7d5fc3b4a8cc",
    ("check thm3", "injections_card_0"): "fd27323fb8f74745d2606811acba1e2a19fa1710e6ea38cd7658d59cad852965",
    ("check thm3", "injections_card_1"): "c6d2a6806cf3bfedf5bbd0765570367784d0ef77bd4132df7a27008e6fa48cd5",
    ("check thm3", "injections_card_2"): "99e205c66f5bdbcebda7f196b10b0637a7dbe853dc0afae3120b918ef6a667bc",
    ("check thm3", "f2_proper.spec"): "3b67e43c4e3e1af521171c17ce2558f746babc97b5907c25d3bd7d5fc3b4a8cc",
    ("check thm3", "f2_proper_model.spec"): "3b67e43c4e3e1af521171c17ce2558f746babc97b5907c25d3bd7d5fc3b4a8cc",
    ("check thm3", "idempotent.spec"): "9da1f68b1e2ad4c1c2c7aa46ffba99c5d7a661a35a18a9d1b04cec5fb060df40",
    ("check ext", "identity"): "da2c8ac2907a06e4d4ae9ded6f48ab76735f63d224e73b47c4e5eeb8e725dfd0",
    ("check ext", "f2_trivial"): "afef40565834783fafa291c47f26e79ee16c6813cf6fdff53e1e5498ab898920",
    ("check ext", "f2_proper"): "dcd7ab2ba04032bb193b02cbf3189cb8b9e697fc51d21bee1b415abba08edcc7",
    ("check ext", "injections_card_0"): "d6a4fad13f80d8f5b022f3d9bb24970d6a959608d1fbc2434e1b366edd419fcd",
    ("check ext", "injections_card_1"): "1870921f12c51e729a4c274a3bc2d60f5ee09f6d6eb5d98abb28955ae052e453",
    ("check ext", "injections_card_2"): "3aab41e110bf4ea1f9bff3c404581b5b6ea0f4c1c6e47b05f938b0a2f74446e4",
    ("check ext", "f2_proper.spec"): "dcd7ab2ba04032bb193b02cbf3189cb8b9e697fc51d21bee1b415abba08edcc7",
    ("check ext", "f2_proper_model.spec"): "dcd7ab2ba04032bb193b02cbf3189cb8b9e697fc51d21bee1b415abba08edcc7",
    ("check ext", "idempotent.spec"): "686077ec7a490424ef2a1100a04ff3a0ac6f8dbf61f19d6027bf6b754039edda",
    ("check lemmas", "identity"): "b51ede3d385e0f3a882cc749e85d35f2e4fd7a83ebe108fb0db27157fe7eee7e",
    ("check lemmas", "f2_trivial"): "b6893ea6fe0f0bb7091825afbc3d2346adf3cd7127b1deab9a5248567232d6df",
    ("check lemmas", "f2_proper"): "1f4eb298cc3f9f1119c3f29be67e41e2d930cf1f6d7b3accef0529e9fcb3c859",
    ("check lemmas", "injections_card_0"): "1012e52910733e5db00a0d4d9706435e0f6b37e787d6cc02a7ec45f7a9366135",
    ("check lemmas", "injections_card_1"): "a1712ea81433dfc26a950ac850c5583aa34ee16c7b24aabe4a112b85e00c9f13",
    ("check lemmas", "injections_card_2"): "cd75792ea6cbcf195c8654ad941f49b3bd323305dc055a856a800355371b7e0a",
    ("check lemmas", "f2_proper.spec"): "1f4eb298cc3f9f1119c3f29be67e41e2d930cf1f6d7b3accef0529e9fcb3c859",
    ("check lemmas", "f2_proper_model.spec"): "1f4eb298cc3f9f1119c3f29be67e41e2d930cf1f6d7b3accef0529e9fcb3c859",
    ("check lemmas", "idempotent.spec"): "421ef21190c7c8bb296eec6506bc2e1eb9dec21180aeff6e3a0952042149718b",
    ("oracle-compare", "identity"): "14e655ce6f59ce5c45a1f648d23d872094828cc0b361579ca9f8cbead8595bd9",
    ("oracle-compare", "f2_trivial"): "dbd15e1c0daaa7698fc8daa635111382e4ee120c07da1a974750f101db6b9b86",
    ("oracle-compare", "f2_proper"): "851d3b5e48267fe6d6aafbf7f8afabee7fa332978bed614d2a38c69e2782d889",
    ("oracle-compare", "injections_card_0"): "143a9c6a341a62ca5470f70bdd56e2f24793cee6c980e54ef8d038fbfc569206",
    ("oracle-compare", "injections_card_1"): "84c28013b82ebd6a6647fd63a5724201ce08427b735b54bcd7c6aa910e2cd7b7",
    ("oracle-compare", "injections_card_2"): "86539967e23575e02c70f89319a560f5ef116ca8a6066736b7932c026b395bb4",
    ("oracle-compare", "f2_proper.spec"): "851d3b5e48267fe6d6aafbf7f8afabee7fa332978bed614d2a38c69e2782d889",
    ("oracle-compare", "f2_proper_model.spec"): "851d3b5e48267fe6d6aafbf7f8afabee7fa332978bed614d2a38c69e2782d889",
    ("oracle-compare", "idempotent.spec"): "ed6f3a5ae956b25f4c04d11790890f1ae4480f5e0414284025df08123d0b520f",
    ("materialize", "identity"): "dbbe560c1eec1681cc9ff369737f8bcbaf02c37be1e1ec394d0d14ea95fd190c",
    ("materialize", "f2_trivial"): "4a06428accdad48a9f1bf9eff821b92905b7f11d529d5172bbe9beedf8620f18",
    ("materialize", "f2_proper"): "320b95145e98c2f3a4c0f200bb6e8778d52a2e691ab32efc4d443ea3eb298c8e",
    ("materialize", "injections_card_0"): "b56cea5f2fa6da287d0f0db3237fa80d784572f303ee86e37808404b8bd0e7de",
    ("materialize", "f2_proper.spec"): "320b95145e98c2f3a4c0f200bb6e8778d52a2e691ab32efc4d443ea3eb298c8e",
    ("materialize", "f2_proper_model.spec"): "320b95145e98c2f3a4c0f200bb6e8778d52a2e691ab32efc4d443ea3eb298c8e",
    ("materialize", "idempotent.spec"): "14b65eb18cf8824a5cd6546df8b81e905325d258fc65b18a2964445b895f5fe1",
}


@pytest.mark.parametrize(
    "command,target,code,sha",
    [pytest.param(*row, id=f"{row[0].replace(' ', '-')}-{row[1]}") for row in PINNED],
)
def test_report_is_pinned(command, target, code, sha, specs_dir, capsys):
    where = ["--spec", str(specs_dir / target)] if target.endswith(".spec") else ["--model", target]
    got, out, _ = run(capsys, *command.split(), *where, "--json")
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha)


@pytest.mark.parametrize(
    "command,target,code",
    [pytest.param(*row[:3], id=f"{row[0].replace(' ', '-')}-{row[1]}") for row in PINNED],
)
def test_text_report_is_pinned(command, target, code, specs_dir, capsys):
    where = ["--spec", str(specs_dir / target)] if target.endswith(".spec") else ["--model", target]
    got, out, _ = run(capsys, *command.split(), *where, "--text")
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, TEXT_PINNED[command, target])


# (seed, index) of each `perfbench/specgen.py` spec of seeds 1-10 on which
# `construct` refuses a non-functorial lift (exit 2), with its stderr line.
CONSTRUCT_REFUSALS = {
    (1, 0): (
        "error: pipeline produced a non-functorial main nullity: ["
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm020', 'null_set': '{u,v}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm022', 'null_set': '{u,v}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm200', 'null_set': '{u,v}'}}]"
    ),
    (2, 1): (
        "error: pipeline produced a non-functorial main nullity: ["
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm001', 'null_set': '{u,w}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm011', 'null_set': '{u,w}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm100', 'null_set': '{u,w}'}}]"
    ),
    (8, 0): (
        "error: pipeline produced a non-functorial main nullity: ["
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm022', 'null_set': '{u,v}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm122', 'null_set': '{u,v}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm202', 'null_set': '{u,v}'}}]"
    ),
    (10, 1): (
        "error: pipeline produced a non-functorial main nullity: ["
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm011', 'null_set': '{u,w}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm110', 'null_set': '{u,w}'}}, "
        "{'law': 'null-not-preserved', 'witness': {'morphism': 'm112', 'null_set': '{u,w}'}}]"
    ),
}


def test_construct_refusals_are_pinned(tmp_path, capsys):
    refused = {}
    for seed in range(1, 11):
        for i, text in enumerate(load_specgen().generate(seed, 2)):
            path = tmp_path / f"s{seed}_{i}.spec"
            path.write_text(text)
            code, _, err = run(capsys, "construct", "--spec", str(path))
            if code == 2:
                refused[seed, i] = err.rstrip("\n")
    assert refused == CONSTRUCT_REFUSALS


def test_materialize_peaks_within_20_mb_of_a_bare_interpreter():
    """The largest category any command builds (27 objects, 6,249
    morphisms, 1,420,123 composites) fits in int16 rows: the whole command
    peaks within 20 MB of `python -c pass` measured the same way (15.6 MB
    above it on CPython 3.11), where rows as lists of ints peaked 27.5 MB
    above it and a composition dict keyed by name pairs at 284 MB."""
    code, _, rss = run_child("materialize", "--model", "injections_card_0")
    assert code == 0
    bare_code, _, bare = measured([sys.executable, "-c", "pass"])
    assert bare_code == 0
    assert rss - bare < 20, (rss, bare)


def test_check_lemmas_peaks_within_9_mb_of_a_bare_interpreter():
    """`check lemmas` on an injections model searches four comma
    categories of 1,276 morphisms each: it composes from the legs of their
    squares, builds no composition rows, and its nine induced functors
    keep the target's name strings.  It peaks within 9 MB of `python -c
    pass` measured the same way (7.7 MB above it on CPython 3.11), where
    rows built for the searches and a copy of every name in each functor
    peaked 9.6 MB above it."""
    code, _, rss = run_child("check", "lemmas", "--model", "injections_card_0")
    assert code == 0
    bare_code, _, bare = measured([sys.executable, "-c", "pass"])
    assert bare_code == 0
    assert rss - bare < 9, (rss, bare)


def mutation_corpus(specs_dir):
    """(spec text, partial) for each one-line mutation of
    `specs/f2_proper.spec`, `specs/idempotent.spec` and the two specgen
    specs of seed 3 that still loads: one `compose`, `mor` or `map` line
    deleted, one `compose` line pointed at each of up to 3 other morphisms
    of its category, or one `mor` line at each of up to 2 other morphisms
    of its functor's target.  `partial` marks a deleted `compose` line,
    which leaves a composable pair without an entry."""
    texts = [(specs_dir / name).read_text() for name in ("f2_proper.spec", "idempotent.spec")]
    out = []
    for text in texts + load_specgen().generate(3, 2):
        lines = text.splitlines()
        homs: dict[str, list[str]] = {}  # category -> its morphism names
        pool: list[str] = []  # the morphisms a line of this block may name
        for i, line in enumerate(lines):
            word, *rest = line.split() or [""]
            if word == "category":
                pool = homs[rest[0]] = []
            elif word == "functor":
                pool = homs[rest[2]]
            elif word == "morphism":
                pool.append(rest[0])
            if word in ("compose", "mor", "map"):
                out.append((lines[:i] + lines[i + 1 :], word == "compose"))
            if word in ("compose", "mor"):
                others = [m for m in pool if m != rest[-1]][: 3 if word == "compose" else 2]
                for m in others:
                    pointed = "  " + " ".join([word, *rest[:-1], m])
                    out.append((lines[:i] + [pointed] + lines[i + 1 :], False))
    loading = []
    for variant, partial in out:
        text = "\n".join(variant) + "\n"
        try:
            to_setup(parse_spec(text))
        except EngineError:
            continue
        loading.append((text, partial))
    return loading


def test_validate_reports_every_loading_mutation(specs_dir, tmp_path, capsys):
    # Where a composable pair has no entry, validate exited 2 on the first
    # functor law that read it; it now reports the gap with exit 1.  The
    # other reports are pinned as they were before.
    spec = tmp_path / "variant.spec"
    corpus = mutation_corpus(specs_dir)
    assert (len(corpus), sum(partial for _, partial in corpus)) == (337, 76)
    pinned = hashlib.sha256()
    for text, partial in corpus:
        spec.write_text(text)
        code, out, err = run(capsys, "validate", "--spec", str(spec), "--json")
        if partial:
            assert code == 1 and '"composition-missing"' in out, text
        else:
            pinned.update(f"{code}\n{out}".encode())
    assert pinned.hexdigest() == "05cd911162dd539ed96367e3a7fe8893dbb1c543493f779c0fb1df86dcf28530"


# Corpus variants whose j2 sends a morphism to one with the wrong endpoints:
# `check ext` reports the unmet A1 with exit 1 and pulls no carriers back.
EXT_UNMAPPED = {12, 13, 14, 15}


def test_corpus_refusals_are_pinned(specs_dir, tmp_path, capsys):
    # A comma category whose composite squares do not commute is refused by
    # naming the two morphisms.  `codes` pins the exit codes of `construct`
    # and `check ext` apart from EXT_UNMAPPED; `pinned` pins every report.
    spec = tmp_path / "variant.spec"
    codes, pinned = hashlib.sha256(), hashlib.sha256()
    for i, (text, _) in enumerate(mutation_corpus(specs_dir)):
        spec.write_text(text)
        for command in ("construct", "check ext"):
            code, out, err = run(capsys, *command.split(), "--spec", str(spec), "--json")
            assert "references unknown name" not in err, text
            if command == "check ext" and i in EXT_UNMAPPED:
                assert code == 1 and '"assumptions"' in out, text
            else:
                codes.update(f"{code}\n".encode())
            pinned.update(f"{code}\n{out}{err}".encode())
    assert codes.hexdigest() == "b91fdfcdb713c608dc470bac0a3ad493f7035157386b13b680f5c66d64306397"
    assert pinned.hexdigest() == "48164ffc1dc766b32048021b3e0cd2c721e52be8e16d3e83ac312c32a9832d74"


def test_census_counts_are_pinned():
    # The census the ROADMAP's census figures are counted on.
    monoids = census.submonoids()
    assert all(census.IDENTITY in m and census.closure(m) == m for m in monoids)
    assert len(monoids) == 699
    assert len(census.monoid_classes(monoids)) == 160
    setups = census.census(monoids)
    assert len(setups) == 1098
    # Its one-generator part is the slice below.
    cyclic = [(m, f) for m, f in setups if any(census.closure([g]) == set(m) for g in m)]
    assert cyclic == census.census_slice()


def four_point_spec() -> str:
    """The specgen layout over the points u v w x: the monoid {id, 0101,
    1010, 1030} of image tuples, with every subset null."""
    sg = load_specgen()  # a module of its own, so its points change here only
    sg.POINTS, sg.IDENTITY = ("u", "v", "w", "x"), (0, 1, 2, 3)
    monoid = sorted({sg.IDENTITY, (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 3, 0)})
    return sg.spec_text(monoid, list(range(16)))


def test_four_point_set_category_is_proved_in_one_pass(tmp_path, capsys, monkeypatch):
    # The gamma square's Set category holds the 256 maps of the 4 points
    # and 65,536 entries (16.7M triples): its image tuples prove it
    # associative, so no triple of it is swept.
    spec = tmp_path / "four.spec"
    spec.write_text(four_point_spec())
    validated, swept = [], []
    real_validate, real_sweep = nullkan.fincat.validate_category, nullkan.fincat._associativity_sweep

    def counting_validate(cat):
        validated.append(cat.name)
        return real_validate(cat)

    def counting_sweep(cat, rows, limit):
        swept.append(cat.name)
        return real_sweep(cat, rows, limit)

    monkeypatch.setattr(nullkan.fincat, "validate_category", counting_validate)
    monkeypatch.setattr(nullkan.fincat, "_associativity_sweep", counting_sweep)
    code, out, err = run(capsys, "check", "ext", "--spec", str(spec), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["extension"]["items"]["gamma_square"] == {"status": "verified"}
    assert validated == ["P", "Set[gam]"]
    assert swept == ["P"]


def test_gamma_square_is_built_when_the_base_lists_its_objects_in_another_order(
    specs_dir, tmp_path, capsys
):
    # The base action maps into gamma's own Set category, so the order in
    # which the base declares its objects cannot set the two apart.
    text = (specs_dir / "f2_proper.spec").read_text()
    ordered = "  object F2^0\n  object F2^1\n"
    assert text.index(ordered) < text.index("category F2-affine")
    spec = tmp_path / "reordered.spec"
    spec.write_text(text.replace(ordered, "  object F2^1\n  object F2^0\n", 1))
    code, out, err = run(capsys, "check", "ext", "--spec", str(spec), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["extension"]["items"]["gamma_square"] == {"status": "verified"}


def test_census_slice_differential(tmp_path, capsys):
    # Every setup validates; the oracle agrees wherever the lift runs, and
    # the lift refuses only a non-functorial main nullity.
    sg = load_specgen()
    setups = census.census_slice()
    assert (len({m for m, _ in setups}), len(setups)) == (7, 67)
    spec = tmp_path / "census.spec"
    pinned = hashlib.sha256()
    lifted = collections.Counter()
    for monoid, family in setups:
        spec.write_text(sg.spec_text(monoid, family))
        codes = {}
        for command in ("validate", "construct", "oracle-compare", "check thm1"):
            code, out, err = run(capsys, *command.split(), "--spec", str(spec), "--json")
            codes[command] = code
            pinned.update(f"{code}\n{out}\0{err}\0".encode())
            if code == 2:
                assert "pipeline produced a non-functorial main nullity" in err, (monoid, family)
        assert codes["validate"] == 0, (monoid, family)
        if codes["construct"] == 0:
            assert codes["oracle-compare"] == 0, (monoid, family)
        lifted[codes["construct"]] += 1
    assert lifted == {0: 53, 2: 14}
    assert pinned.hexdigest() == "500e437ef9d954667a99df223b5f991515405be93761fa795cc667daa958cdb6"


def test_census_slice_thm3_and_ext_pinned(tmp_path, capsys):
    # The two verifiers that read the carrier action and enumerate
    # assignments, pinned on the same 67 setups by one digest over (exit
    # code, stdout, stderr) of each run.
    sg = load_specgen()
    spec = tmp_path / "census.spec"
    pinned = hashlib.sha256()
    for monoid, family in census.census_slice():
        spec.write_text(sg.spec_text(monoid, family))
        for command in ("check thm3", "check ext"):
            code, out, err = run(capsys, *command.split(), "--spec", str(spec), "--json")
            pinned.update(f"{code}\n{out}\0{err}\0".encode())
    assert pinned.hexdigest() == "254301c833563c46b8e977bf6a3f481da1ab661af83209102185856d8df86bb2"
