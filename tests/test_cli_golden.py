"""Golden CLI output: every fixture command reproduces its stored stdout.

The fixtures under ``tests/fixtures/cli`` were written by
``make_golden.py`` there; a refactor or a speed-up must leave every
byte of them unchanged.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli"
sys.path.insert(0, str(FIXTURES))

from make_golden import run_cli  # noqa: E402

from padicspectral import OneParamGroup, StrongNormalCertificate  # noqa: E402

MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())["commands"]


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[f"{e['case']}-{e['stdout'][:-4]}" for e in MANIFEST]
)
def test_cli_output_matches_golden(entry):
    case_dir = FIXTURES / entry["case"]
    code, stdout = run_cli(entry["argv"], case_dir)
    assert code == entry["exit"]
    assert stdout == (case_dir / entry["stdout"]).read_text()


@pytest.mark.parametrize("case", sorted({e["case"] for e in MANIFEST} - {"refusals"}))
def test_certificates_reserialize_byte_for_byte(case):
    # each golden certificate and bundle reads back through from_dict and
    # writes the same bytes through to_dict
    for name in ("certify.out", "bundle.json", "stone.out"):
        text = (FIXTURES / case / name).read_text()
        doc = json.loads(text)
        if "budget" in doc:
            doc.update(OneParamGroup.from_dict(doc).to_dict())
        else:
            doc["certificate"] = StrongNormalCertificate.from_dict(doc["certificate"]).to_dict()
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


FUZZ_CASE = FIXTURES / "p7_prec24_n2"
FUZZ_ARGV = [e["argv"] for e in MANIFEST if e["case"] == FUZZ_CASE.name]
JUNK = st.one_of(
    st.integers(-(10**40), 10**40),
    st.sampled_from([10**30, -(10**30), "9" * 25000]),
    st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.none(),
    st.floats(),
    st.booleans(),
)


def _paths(node, path=()):
    """Every path from the root of a JSON tree, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def _mutated_input(draw):
    """A fixture command line and its input file, damaged once: a value
    replaced, a key or list item deleted, or the text cut short."""
    argv = draw(st.sampled_from(FUZZ_ARGV))
    name = next(a for a in argv if a.endswith(".json"))
    text = (FUZZ_CASE / name).read_text()
    kind = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "truncate":
        return argv, name, text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    paths = list(_paths(doc))
    if kind == "delete":
        paths = paths[1:]  # the root has no parent to delete it from
    path = draw(st.sampled_from(paths))
    if not path:
        return argv, name, json.dumps(draw(JUNK))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return argv, name, json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(_mutated_input())
def test_cli_survives_damaged_fixture_input(case):
    # every run ends in an exit code; no exception escapes main
    argv, name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / name).write_text(text)
        code, _ = run_cli(argv, Path(tmp))
    assert code in (0, 1, 2, 3)
