from pathlib import Path

import pytest

from nullkan.construct import build_comma_web, probe_carriers, run_pipeline
from nullkan.fincat import DEFAULT_BUDGET
from nullkan.kan import NullityDiagram, lattice_check
from nullkan.nullity import carrier_of
from nullkan.specfile import parse_spec, to_setup

SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture(scope="session")
def specs_dir():
    return SPECS


@pytest.fixture
def idempotent_setup():
    doc = parse_spec((SPECS / "idempotent.spec").read_text())
    return to_setup(doc, "idempotent")


def replay_kan_steps(s):
    """The pipeline's right and left Kan steps on `s`, each replayed fiber
    by fiber through `kan.lattice_check`: step -> target object -> agrees."""
    r = run_pipeline(s)
    web = build_comma_web(s)
    probed = NullityDiagram(web.comma_probe.category, r.probed.extension)
    main_carriers = {V: carrier_of(s.gamma, V) for V in s.main.objects}
    return {
        "probed": lattice_check(
            web.induced("pi_star"), r.comma_values, probe_carriers(s), r.probed, DEFAULT_BUDGET
        ),
        "main": lattice_check(
            web.comma_probe.forget2, probed, main_carriers, r.main, DEFAULT_BUDGET
        ),
    }


@pytest.fixture(scope="session")
def kan_replay():
    return replay_kan_steps
