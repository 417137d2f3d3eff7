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

from make_golden import SAMPLED_CASES, ZERO_CASE, input_files, run_cli  # noqa: E402
from oracle import oracle_group_value_holds, oracle_stone_holds  # noqa: E402

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


P5_ENTRIES = [e for e in MANIFEST if e["case"] == "p5_prec32_n3"]


def _placements(argv):
    """A golden command line with its global flags moved: --prec after the
    subcommand, and an explicit --p 5 --seed 42 before it or after it."""
    prec, rest = argv[:2], argv[2:]
    assert prec == ["--prec", "32"]
    explicit = ["--p", "5", "--seed", "42"]
    return [rest + prec, explicit + argv, argv + explicit]


@pytest.mark.parametrize("entry", P5_ENTRIES, ids=[e["stdout"][:-4] for e in P5_ENTRIES])
def test_global_flags_work_on_either_side(entry, capsys):
    # each golden command prints its golden bytes wherever its global flags
    # stand, and a --p that disagrees with the input is refused on either side
    case_dir = FIXTURES / entry["case"]
    golden = (case_dir / entry["stdout"]).read_text()
    argv = entry["argv"]
    for moved in _placements(argv):
        assert run_cli(moved, case_dir) == (entry["exit"], golden), moved
    for wrong in (["--p", "7", *argv], [*argv, "--p", "7"]):
        assert run_cli(wrong, case_dir) == (1, ""), wrong
        assert capsys.readouterr().err == "input error: --p 7 but the input has p = 5\n"


def _grid(doc):
    return [[int(x) for x in row] for row in doc["entries"]]


def _residues(docs):
    return [int(d["val"]) for d in docs]


def _oracle_check(entry, corrupt=False):
    """The oracle's verdict on a golden group-eval or stone output: its U and
    unit spectrum against the bundle's certificate, or its certificate
    against its U(1+p), at the least precision of the parts it reads;
    ``corrupt`` adds p^(prec-1) to U's first entry first."""
    case_dir = FIXTURES / entry["case"]
    out = json.loads((case_dir / entry["stdout"]).read_text())
    p = out["config"]["p"]
    if entry["argv"][2] == "stone":
        cert = out["certificate"]
        u = json.loads((case_dir / "unitary.json").read_text())
        parts = [u, cert["matrix"], cert["basis"], *cert["eigenvalues"]]
    else:
        cert = json.loads((case_dir / "bundle.json").read_text())["certificate"]
        u = out["matrix"]
        parts = [u, cert["basis"], *out["unit_spectrum"]]
    prec = min(x["prec"] for x in parts)
    u_rows, basis, lams = _grid(u), _grid(cert["basis"]), _residues(cert["eigenvalues"])
    if corrupt:
        u_rows[0][0] += p ** (prec - 1)
    if entry["argv"][2] == "stone":
        return oracle_stone_holds(_grid(cert["matrix"]), basis, lams, u_rows, p, prec)
    mu, z = _residues(out["unit_spectrum"]), int(out["s"]) - 1
    return oracle_group_value_holds(u_rows, mu, basis, lams, z, p, prec)


GROUP_VALUES = [e for e in MANIFEST if e["argv"][2] in ("group-eval", "stone")]


@pytest.mark.parametrize(
    "entry", GROUP_VALUES, ids=[f"{e['case']}-{e['stdout'][:-4]}" for e in GROUP_VALUES]
)
def test_golden_group_values_hold_against_the_oracle(entry):
    # U(s) S = S diag(mu) with mu_i = (1+z)^lam_i on the bundle's S, and a
    # recovered generator's certificate that gives back U(1+p), by integer
    # products and pow over Z; one digit off in U fails the check
    assert _oracle_check(entry)
    assert not _oracle_check(entry, corrupt=True)


def test_input_files_regenerate_byte_for_byte():
    # make_golden.py still writes every committed input file: three per
    # sampled case, the zero case's two and the three refusal inputs; the
    # sampling inverts at n = 2, 3 and 6, and U(1+p) reads S^-1
    files = input_files()
    assert len(files) == 3 * len(SAMPLED_CASES) + 2 + 3
    for name, text in files.items():
        assert (FIXTURES / name).read_text() == text, name


def _certificate_files(case):
    """The golden files of ``case`` that hold a certificate: its own or its
    bundle's; the zero case has no certify.out."""
    names = ["bundle.json", "stone.out"] + ([] if case == ZERO_CASE else ["certify.out"])
    return [FIXTURES / case / name for name in names]


@pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
def test_certificates_reserialize_byte_for_byte(case):
    # each golden certificate and bundle reads back through from_dict and
    # writes the same bytes through to_dict
    for path in _certificate_files(case):
        text = path.read_text()
        doc = json.loads(text)
        if "budget" in doc:
            doc.update(OneParamGroup.from_dict(doc).to_dict())
        else:
            doc["certificate"] = StrongNormalCertificate.from_dict(doc["certificate"]).to_dict()
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def _older(cert_doc):
    """A certificate document as versions before the three-field certificate
    wrote it: eigenvalue i owning ``multiplicities[i]`` columns, 1 each, or
    all n for a lone eigenvalue."""
    k, n = len(cert_doc["eigenvalues"]), cert_doc["matrix"]["n"]
    return {**cert_doc, "multiplicities": [1] * k if k == n else [n]}


def _plain(cert_doc):
    """A certificate document without the key of older versions."""
    return {k: v for k, v in cert_doc.items() if k != "multiplicities"}


def test_zero_bundle_is_stones_own_in_the_older_schema():
    # the zero case's bundle.json is the bundle stone prints for I_3, with
    # the "multiplicities": [3] that older versions wrote, and stone's own
    # certificate has no such key
    stone = json.loads((FIXTURES / ZERO_CASE / "stone.out").read_text())
    bundle = json.loads((FIXTURES / ZERO_CASE / "bundle.json").read_text())
    assert "multiplicities" not in stone["certificate"]
    assert bundle["certificate"]["multiplicities"] == [3]
    assert bundle == {"budget": stone["budget"], "certificate": _older(stone["certificate"])}


@pytest.mark.parametrize("case", [*SAMPLED_CASES, ZERO_CASE])
def test_older_certificate_files_read_the_same(case, tmp_path):
    # with or without the "multiplicities" key of older versions, each
    # golden certificate reads to the same certificate, and group-eval
    # prints the golden bytes from the bundle either way
    for path in _certificate_files(case):
        plain = _plain(json.loads(path.read_text())["certificate"])
        read = StrongNormalCertificate.from_dict(plain)
        assert StrongNormalCertificate.from_dict(_older(plain)) == read
    entry = next(
        e for e in MANIFEST if e["case"] == case and e["stdout"] == "group-eval-bundle.out"
    )
    golden = (FIXTURES / case / entry["stdout"]).read_text()
    bundle = json.loads((FIXTURES / case / "bundle.json").read_text())
    plain = _plain(bundle["certificate"])
    for cert in (plain, _older(plain)):
        (tmp_path / "bundle.json").write_text(json.dumps({**bundle, "certificate": cert}))
        assert run_cli(entry["argv"], tmp_path) == (0, golden)


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
