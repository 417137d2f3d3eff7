"""CLI contract: schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicspectral
from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    StrongNormalCertificate,
    certify_strongly_normal,
)
from padicspectral.cli import main
from padicspectral.errors import CertificationFailed


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    return _write(tmp_path / "mat.json", PadicMatrix([[0, 1], [2, 1]], 5, 32).to_dict())


@pytest.fixture
def group_file(tmp_path):
    cert = certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32))
    g = OneParamGroup(cert, SeriesBudget(32))
    return _write(tmp_path / "group.json", g.to_dict())


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_certify_success(matrix_file, capsys):
    code, out = _run(capsys, ["certify", matrix_file])
    assert code == 0
    doc = json.loads(out)
    assert {e["val"] for e in doc["certificate"]["eigenvalues"]} == {
        "2",
        str(5**32 - 1),
    }
    cfg = doc["config"]
    assert cfg["p"] == 5 and cfg["precision"] == 32 and "version" in cfg
    assert cfg["seed"] == 42 and "guard" not in cfg


def test_certify_refusal_exit_2(tmp_path, capsys):
    path = _write(tmp_path / "ident.json", PadicMatrix.identity(2, 5, 32).to_dict())
    code, out = _run(capsys, ["certify", path])
    assert code == 2
    assert json.loads(out)["refusal"]["type"] == "DegenerateReduction"


def test_malformed_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["certify", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["certify", str(missing)]) == 1
    schema = _write(tmp_path / "schema.json", {"p": 5})
    assert main(["certify", schema]) == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group-eval"])  # missing file and --s
    assert exc.value.code == 1


def test_guard_flag_is_unknown(matrix_file, capsys):
    # the budget is a target only; a guard flag is malformed input
    for argv in (
        ["--guard", "3", "certify", matrix_file],
        ["certify", matrix_file, "--guard", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.startswith("padic-spectral: error: ")
        assert "Traceback" not in captured.err


def test_group_eval(group_file, capsys):
    code, out = _run(capsys, ["group-eval", group_file, "--s", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"]["n"] == 2
    assert doc["s"] == "6"


def test_group_eval_accepts_bare_matrix(matrix_file, group_file, capsys):
    code1, out1 = _run(capsys, ["group-eval", matrix_file, "--s", "6"])
    code2, out2 = _run(capsys, ["group-eval", group_file, "--s", "6"])
    assert code1 == code2 == 0
    assert json.loads(out1)["matrix"] == json.loads(out2)["matrix"]


def test_group_eval_rejects_non_principal(group_file, capsys):
    code, out = _run(capsys, ["group-eval", group_file, "--s", "2"])
    assert code == 2
    assert json.loads(out)["refusal"]["type"] == "NotPrincipal"


def test_check_law_report(group_file, capsys):
    code, out = _run(capsys, ["check-law", group_file, "--samples", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["samples"] == 8
    assert doc["seed"] == 42
    assert doc["check"] == "group-law"
    assert doc["min_margin_valuation"] >= 0


def test_lipschitz_report(group_file, capsys):
    code, out = _run(capsys, ["lipschitz", group_file, "--samples", "8", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["seed"] == 7


def test_stone_roundtrip_through_files(tmp_path, group_file, capsys):
    code, out = _run(capsys, ["group-eval", group_file, "--s", "6"])
    assert code == 0
    u1p = json.loads(out)["matrix"]
    u1p_file = _write(tmp_path / "u1p.json", u1p)
    code, out = _run(capsys, ["stone", u1p_file])
    assert code == 0
    bundle = json.loads(out)
    assert "certificate" in bundle and "budget" in bundle
    rec_file = _write(
        tmp_path / "rec.json",
        {"certificate": bundle["certificate"], "budget": bundle["budget"]},
    )
    code, out = _run(capsys, ["group-eval", rec_file, "--s", "6"])
    assert code == 0
    back = PadicMatrix.from_dict(json.loads(out)["matrix"])
    orig = PadicMatrix.from_dict(u1p)
    assert back.congruent(orig.truncate_to(back.prec), 26)


def test_one_by_one_stone(tmp_path, capsys):
    # a 1 x 1 U(1+p) is certified; A = [[3]], as generator_log_series gives
    path = _write(tmp_path / "one.json", _matrix_doc([["216"]], prec=8))
    code, out = _run(capsys, ["stone", path])
    assert code == 0
    assert json.loads(out)["certificate"]["matrix"] == PadicMatrix([[3]], 5, 7).to_dict()


def test_stone_refusal(tmp_path, capsys):
    path = _write(tmp_path / "bad.json", PadicMatrix([[1, 1], [0, 6]], 5, 32).to_dict())
    code, out = _run(capsys, ["stone", path])
    assert code == 2
    assert json.loads(out)["refusal"]["type"] == "NotPrincipalSpectrum"
    # V = diag(5, 10) at 2 digits fixes its eigenvalues mod 25, so A mod 5
    path = _write(tmp_path / "short.json", _matrix_doc([["6", "0"], ["0", "11"]], prec=2))
    code, out = _run(capsys, ["stone", path])
    assert code == 0
    expected = PadicMatrix.diagonal([1, 2], 5, 1).to_dict()
    assert json.loads(out)["certificate"]["matrix"] == expected


def test_additive(group_file, capsys):
    # z prints as the integer it parses to, as s does in group-eval
    runs = [_run(capsys, ["additive", group_file, "--z", z]) for z in ("3", "+3", "03")]
    code, out = runs[0]
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"]["n"] == 2 and doc["z"] == "3"
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_converge_table(group_file, capsys):
    code, out = _run(capsys, ["converge", group_file, "--s", "31", "--max-n", "5"])
    assert code == 0
    table = json.loads(out)["table"]
    assert [row["n"] for row in table] == list(range(6))
    for row in table:
        assert row["proven_bound"] == row["n"] + 2
        assert row["error_valuation"] >= row["proven_bound"]


def test_byte_identical_output(group_file, capsys):
    _, out1 = _run(capsys, ["check-law", group_file, "--samples", "5"])
    _, out2 = _run(capsys, ["check-law", group_file, "--samples", "5"])
    assert out1 == out2
    _, out3 = _run(capsys, ["check-law", group_file, "--samples", "5", "--seed", "1"])
    assert out3 != out1


def test_refusal_config_comes_from_input(tmp_path, capsys):
    scalar = PadicMatrix([[3, 0], [0, 3]], 7, 32)
    path = _write(tmp_path / "scalar7.json", scalar.to_dict())
    code, out = _run(capsys, ["certify", path])
    assert code == 2
    doc = json.loads(out)
    assert doc["refusal"]["type"] == "DegenerateReduction"
    assert doc["config"]["p"] == 7 and doc["config"]["precision"] == 32


def test_bundle_refusal_config_uses_bundle_budget(tmp_path, capsys):
    cert = certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 7, 20))
    bundle = OneParamGroup(cert, SeriesBudget(20)).to_dict()
    path = _write(tmp_path / "g7.json", bundle)
    code, out = _run(capsys, ["--prec", "40", "group-eval", path, "--s", "2"])
    assert code == 2
    cfg = json.loads(out)["config"]
    assert (cfg["p"], cfg["precision"]) == (7, 20)
    # a one-digit target leaves zeta(s), and so converge, no digit
    path = _write(tmp_path / "g7t1.json", OneParamGroup(cert, SeriesBudget(1)).to_dict())
    code, out = _run(capsys, ["converge", path, "--s", "8", "--max-n", "2"])
    assert code == 3
    doc = json.loads(out)
    assert doc["error"]["type"] == "InsufficientPrecision"
    assert doc["config"]["precision"] == 1


def test_invalid_prime_flag_is_input_error(tmp_path, capsys):
    path = _write(tmp_path / "ident.json", PadicMatrix.identity(2, 5, 32).to_dict())
    code = main(["--p", "4", "certify", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


def test_old_projector_schema_is_input_error(tmp_path, group_file, capsys):
    bundle = json.loads(Path(group_file).read_text())
    cert = bundle["certificate"]
    del cert["basis"]
    cert["projectors"] = [cert["matrix"], cert["matrix"]]
    path = _write(tmp_path / "old.json", bundle)
    code = main(["group-eval", path, "--s", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "missing field" in captured.err and "'basis'" in captured.err


def test_missing_field_is_input_error(tmp_path, group_file, capsys):
    # the refusal names the object and the field, not a bare key
    bundle = json.loads(Path(group_file).read_text())
    del bundle["budget"]
    no_val = json.loads(Path(group_file).read_text())
    del no_val["certificate"]["eigenvalues"][0]["val"]
    cases = [
        ("certify", {"p": 5, "prec": 8, "n": 2}, "PadicMatrix is missing field(s) ['entries']"),
        ("group-eval", bundle, "OneParamGroup is missing field(s) ['budget']"),
        ("group-eval", {**bundle, "budget": {}}, "SeriesBudget is missing field(s) ['target']"),
        ("group-eval", no_val, "PadicInt is missing field(s) ['val']"),
    ]
    for k, (command, doc, message) in enumerate(cases):
        path = _write(tmp_path / f"missing{k}.json", doc)
        code = main([command, path] + (["--s", "6"] if command == "group-eval" else []))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"input error: {message}\n")


def _refused_as_unverified(capsys, path, reason):
    code = main(["group-eval", path, "--s", "36"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"input error: certificate does not verify: {reason}")
    assert "Traceback" not in captured.err


def _moved(entries, i, j, by):
    entries[i][j] = str((int(entries[i][j]) + by) % 5**32)


def test_corrupted_bundle_is_input_error(tmp_path, group_file, capsys):
    # an older bundle's basis_inverse is ignored: correct, or with one entry
    # moved by 5^20, it prints the U(s) of the same bundle without it
    bundle = json.loads(Path(group_file).read_text())
    cert = bundle["certificate"]
    assert "basis_inverse" not in cert
    want = _run(capsys, ["group-eval", group_file, "--s", "36"])
    assert want[0] == 0
    inverse = PadicMatrix.from_dict(cert["basis"]).inverse().to_dict()
    moved = json.loads(json.dumps(inverse))
    _moved(moved["entries"], 0, 0, 5**20)
    for k, stored in enumerate((inverse, moved)):
        old = {**bundle, "certificate": {**cert, "basis_inverse": stored}}
        path = _write(tmp_path / f"old{k}.json", old)
        assert _run(capsys, ["group-eval", path, "--s", "36"]) == want
    # a basis entry moved by 5^20 must not yield a wrong U(s)
    _moved(cert["basis"]["entries"], 0, 0, 5**20)
    _refused_as_unverified(capsys, _write(tmp_path / "corrupt.json", bundle), "A S != S D")


def test_singular_basis_is_input_error(tmp_path, group_file, capsys):
    # S with a column times p keeps A S = S D, but S mod p is singular: an
    # input error (exit 1), not a refusal of the input's mathematics (exit 2)
    bundle = json.loads(Path(group_file).read_text())
    cert = bundle["certificate"]
    for row in cert["basis"]["entries"]:
        row[0] = str(5 * int(row[0]) % 5**32)
    _refused_as_unverified(
        capsys, _write(tmp_path / "singular.json", bundle), "S mod p is singular"
    )
    with pytest.raises(ValueError) as refusal:
        StrongNormalCertificate.from_dict(cert)
    assert isinstance(refusal.value.__cause__, CertificationFailed)
    basis = PadicMatrix.from_dict(cert["basis"])
    c = certify_strongly_normal(PadicMatrix.from_dict(cert["matrix"]))
    with pytest.raises(CertificationFailed, match="S mod p is singular"):
        StrongNormalCertificate(c.matrix, c.eigenvalues, basis).verify()


def test_prime_flag_must_match_input(matrix_file, group_file, capsys):
    for argv in (["certify", matrix_file], ["group-eval", group_file, "--s", "6"]):
        code = main(["--p", "7", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "input error: --p 7 but the input has p = 5\n"
        # a matching --p changes nothing
        _, with_flag = _run(capsys, ["--p", "5", *argv])
        _, without = _run(capsys, argv)
        assert with_flag == without and json.loads(without)["config"]["p"] == 5


def test_output_at_the_input_bounds(tmp_path, capsys, digit_limit):
    # p < 2^16 and 4096 digits are inside the input bounds, so entries of
    # 19728 decimal digits must print and read back; a longer one is refused.
    # It runs at the interpreter's default digit limit, which it leaves alone
    p, prec = 65521, 4096
    matrix = PadicMatrix([[0, 1], [2, 1]], p, prec)
    path = _write(tmp_path / "mat.json", matrix.to_dict())
    code, out = _run(capsys, ["--prec", str(prec), "certify", path])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert max(len(x) for row in cert["basis"]["entries"] for x in row) == 19728
    budget = SeriesBudget(prec).to_dict()
    bundle = _write(tmp_path / "bundle.json", {"certificate": cert, "budget": budget})
    code, out = _run(capsys, ["group-eval", bundle, "--s", "1"])
    assert code == 0
    assert json.loads(out)["matrix"]["prec"] == prec
    cert["basis"]["entries"][0][0] = "1" * 20481
    _write(tmp_path / "long.json", {"certificate": cert, "budget": budget})
    code = main(["group-eval", str(tmp_path / "long.json"), "--s", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: ")


def test_long_parameters_read_and_echo(group_file, capsys, digit_limit):
    # --s and --z beyond the interpreter's digit limit read and echo in full,
    # and act as their residues mod p^target
    for command, key, last in [("group-eval", "s", 6), ("additive", "z", 3)]:
        text = "1" + "0" * 4999 + str(last)
        code, out = _run(capsys, [command, group_file, f"--{key}", text])
        assert code == 0
        doc = json.loads(out)
        assert doc[key] == text
        short = str((10**5000 + last) % 5**32)
        code, out = _run(capsys, [command, group_file, f"--{key}", short])
        assert code == 0 and json.loads(out)["matrix"] == doc["matrix"]


def test_group_eval_at_the_prime_bound(tmp_path, capsys):
    # a non-trivial s at the largest prime: U(s) = S diag(s^lam) S^-1,
    # with s^lam a pow on lam's signed residue (the eigenvalues are 2, -1)
    p, prec, s = 65521, 1024, 65522
    path = _write(tmp_path / "mat.json", PadicMatrix([[0, 1], [2, 1]], p, prec).to_dict())
    code, out = _run(capsys, ["--prec", str(prec), "certify", path])
    assert code == 0
    cert = json.loads(out)["certificate"]
    budget = SeriesBudget(prec).to_dict()
    bundle = _write(tmp_path / "bundle.json", {"certificate": cert, "budget": budget})
    code, out = _run(capsys, ["group-eval", bundle, "--s", str(s)])
    assert code == 0
    u = PadicMatrix.from_dict(json.loads(out)["matrix"])
    c = StrongNormalCertificate.from_dict(cert)
    mod = p**prec
    signed = [x.residue - mod if x.residue > mod // 2 else x.residue for x in c.eigenvalues]
    assert sorted(signed) == [-1, 2]
    d = [pow(s, e, mod) for e in signed]
    b, b_inv = c.basis.rows(), c.basis_inverse.rows()
    expected = [
        [sum(b[i][k] * d[k] * b_inv[k][j] for k in range(2)) % mod for j in range(2)]
        for i in range(2)
    ]
    assert u.prec == prec and list(map(list, u.rows())) == expected


def test_budget_beyond_the_bound_is_input_error(
    tmp_path, matrix_file, group_file, capsys
):
    # every modulus grows with the target, so a budget read from a bundle
    # or a flag is bounded like any other precision, not computed with
    bundle = json.loads(Path(group_file).read_text())
    bundle["budget"]["target"] = 10**12
    path = _write(tmp_path / "budget.json", bundle)
    huge = str(10**12)
    for argv in (
        ["group-eval", path, "--s", "6"],
        ["--prec", huge, "group-eval", matrix_file, "--s", "6"],
        ["--prec", huge, "additive", matrix_file, "--z", "3"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"input error: precision {huge} is beyond")


def _matrix_doc(entries, p=5, prec=8):
    return {"p": p, "prec": prec, "n": len(entries), "entries": entries}


def _bundle_with(group_file, edit):
    bundle = json.loads(Path(group_file).read_text())
    edit(bundle)
    return bundle


# (id, argv before the input file, input: raw JSON text, a document, or a
# function of the bundle file returning a document); each is an input error
MALFORMED = [
    ("nested-too-deeply", ["certify"], "[" * 200000),
    ("float-overflow", ["certify"], '{"p": 5, "prec": 8, "n": 1, "entries": [[1e400]]}'),
    ("fractional-entry", ["certify"], '{"p": 5, "prec": 8, "n": 1, "entries": [[1.9]]}'),
    ("nan-entry", ["certify"], '{"p": 5, "prec": 8, "n": 1, "entries": [[NaN]]}'),
    ("infinite-prime", ["certify"], '{"p": Infinity, "prec": 8, "n": 1, "entries": [[1]]}'),
    ("prime-2", ["certify"], _matrix_doc([[0, 1], [1, 1]], p=2)),
    ("composite-prime", ["certify"], _matrix_doc([[0, 1], [2, 1]], p=9)),
    ("prime-beyond-bound", ["certify"], _matrix_doc([[0, 1], [2, 1]], p=2**61 - 1)),
    ("prec-beyond-bound", ["certify"], _matrix_doc([[0, 1], [2, 1]], prec=2000000)),
    ("above-max-dim", ["certify"], _matrix_doc([[0] * 65 for _ in range(65)])),
    ("ragged-rows", ["certify"], _matrix_doc([[0, 1], [2]])),
    ("prec-zero", ["certify"], _matrix_doc([[0, 1], [2, 1]], prec=0)),
    ("prec-negative", ["certify"], _matrix_doc([[0, 1], [2, 1]], prec=-3)),
    ("prec-flag-zero", ["--prec", "0", "certify"], _matrix_doc([[0, 1], [2, 1]])),
    ("entries-string", ["certify"], {"p": 5, "prec": 8, "n": 2, "entries": "0 1 2 1"}),
    # a string where a list belongs is malformed, though it iterates
    ("row-strings", ["certify"], {"p": 5, "prec": 8, "n": 2, "entries": ["01", "21"]}),
    (
        "budget-list",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(g, lambda b: b.update(budget=[32, 5])),
    ),
    (
        "certificate-fields-missing",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(g, lambda b: b["certificate"].pop("basis")),
    ),
    (
        "eigenvalue-prec-beyond-bound",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(
            g, lambda b: b["certificate"]["eigenvalues"][0].update(prec=2000000)
        ),
    ),
    # a sampled check of no samples, or an empty table, checks nothing
    ("zero-samples", ["check-law", "--samples", "0"], _matrix_doc([[0, 1], [2, 1]])),
    ("negative-samples", ["lipschitz", "--samples", "-3"], _matrix_doc([[0, 1], [2, 1]])),
    (
        "negative-max-n",
        ["converge", "--s", "31", "--max-n", "-2"],
        _matrix_doc([[0, 1], [2, 1]]),
    ),
    # a table longer than the precision bound is refused before it is built
    (
        "max-n-beyond-bound",
        ["converge", "--s", "31", "--max-n", "4097"],
        _matrix_doc([[0, 1], [2, 1]]),
    ),
    ("boolean-entry", ["certify"], _matrix_doc([[False, True], [2, True]])),
    # a decimal is a sign and ASCII digits, with no space or underscore
    ("space-padded-entry", ["certify"], _matrix_doc([[" 1", "0"], ["2", "1"]])),
    ("underscore-entry", ["certify"], _matrix_doc([["2_0", "1"], ["2", "1"]])),
    (
        "true-eigenvalue",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(
            g, lambda b: b["certificate"]["eigenvalues"][0].update(val=True)
        ),
    ),
    ("boolean-prec", ["certify"], _matrix_doc([[0, 1], [2, 1]], prec=True)),
    (
        "boolean-guard",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(g, lambda b: b["budget"].update(guard=False)),
    ),
    (
        "boolean-multiplicities",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(
            g, lambda b: b["certificate"].update(multiplicities=[True, 1])
        ),
    ),
    (
        "eigenvalue-of-another-prime",
        ["group-eval", "--s", "6"],
        lambda g: _bundle_with(g, lambda b: b["certificate"]["eigenvalues"][0].update(p=7)),
    ),
    # diag(1, 1, 2) S = S D holds for S = I with eigenvalue 1 owning two
    # columns, as older versions read "multiplicities": [2, 1]; but a
    # certificate has one eigenvalue per column, or one for all of them
    (
        "two-eigenvalues-in-dimension-3",
        ["group-eval", "--s", "6"],
        {
            "certificate": {
                "matrix": PadicMatrix.diagonal([1, 1, 2], 5, 8).to_dict(),
                "eigenvalues": [PadicInt(x, 5, 8).to_dict() for x in (1, 2)],
                "multiplicities": [2, 1],
                "basis": PadicMatrix.identity(3, 5, 8).to_dict(),
            },
            "budget": {"target": 8},
        },
    ),
]


@pytest.mark.parametrize(
    "argv,payload", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_input_is_input_error(tmp_path, group_file, capsys, argv, payload):
    path = tmp_path / "input.json"
    if callable(payload):
        payload = payload(group_file)
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        _write(path, payload)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("multiplicities", ["11", [1, 1], [2]], ids=["string", "ones", "lone"])
def test_older_multiplicities_key_is_ignored(tmp_path, group_file, capsys, multiplicities):
    # eigenvalue i owns column i of S: the key older versions wrote, or any
    # value under it, changes no output
    older = _bundle_with(
        group_file, lambda b: b["certificate"].update(multiplicities=multiplicities)
    )
    path = _write(tmp_path / "older.json", older)
    assert _run(capsys, ["group-eval", path, "--s", "6"]) == _run(
        capsys, ["group-eval", group_file, "--s", "6"]
    )


def test_cli_import_loads_no_heavy_stdlib():
    # start-up: importing the CLI loads neither dataclasses nor inspect
    # (-S keeps site hooks of the environment out of the count)
    src = str(Path(padicspectral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import padicspectral.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
