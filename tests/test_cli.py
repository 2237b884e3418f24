import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from quiverbelt.cli import ParseError, main, parse_entry, parse_matrix_spec


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_entry_shorthand():
    assert abs(parse_entry("cos(1/3)").to_float() - 1.0) < 1e-12
    assert abs(parse_entry("-cos(2/5)").to_float() + 0.618034) < 1e-5
    from fractions import Fraction

    assert parse_entry("3/2") == Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_entry("cos(x)")


def test_parse_matrix_spec_rank3():
    B = parse_matrix_spec("cos(1/3),0,cos(2/5)")
    assert B.rank == 3
    assert abs(B[0, 1].to_float() - 1.0) < 1e-12
    assert B[0, 2].is_zero()


def test_classify_path_quiver(capsys):
    code, out, _ = run(["classify", "--entries", "cos(1/3),cos(1/3),0"], capsys)
    assert code == 0
    assert "FiniteType" in out


def test_classify_markov(capsys):
    code, out, _ = run(["classify", "--entries", "2,-2,2"], capsys)
    assert code == 0
    assert "MarkovClass" in out


def test_classify_affine_json(capsys):
    code, out, _ = run(
        ["classify", "--affine", "5", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "affine" and data["denominator"] == 5
    assert abs(data["markov_constant_float"] - 4.0) < 1e-12


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_reports_a_zero_markov_constant(fmt, capsys):
    # the cyclic 3,-3,3 has C = 27 - 27 = 0, a falsy field element
    code, out, _ = run(["classify", "--entries=3,-3,3", "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        data = json.loads(out)
        assert data["markov_constant"] == {"level": 2, "coeffs": ["0"]}
        assert data["markov_constant_float"] == 0.0
    else:
        assert "markov constant: 0.000000" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_reports_a_markov_constant_beyond_the_float_range(fmt, capsys):
    # C = 10^400 + 1 is exact in the field and inf as a float
    code, out, _ = run(["classify", "--entries", "1e200,0,1", "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        data = json.loads(out)
        assert data["markov_constant"] == {"level": 2, "coeffs": [str(10**400 + 1)]}
        assert data["markov_constant_float"] is None
    else:
        assert "markov constant: inf" in out


@pytest.mark.parametrize(
    "entries, weight", [("0,0,0", "0"), ("0,0,cos(1/7)", "cos(1/7)")]
)
def test_classify_reports_an_isolated_vertex_as_decomposable(entries, weight, capsys):
    code, out, err = run(["classify", "--entries", entries], capsys)
    assert code == 0 and err == ""
    assert f"Decomposable(weight={weight})" in out
    assert f"rank-2 factor weight: {weight}" in out
    code, out, _ = run(["classify", "--entries", entries, "--format", "json"], capsys)
    data = json.loads(out)
    assert code == 0 and data["kind"] == "decomposable" and data["weight"] == weight


@pytest.mark.parametrize("entry, value", [("cos(0/1)", "2"), ("cos(1/1)", "-2")])
def test_classify_reads_cosines_of_whole_multiples_of_pi(entry, value, capsys):
    # 2cos(k*pi) = 2(-1)^k, an entry like any other
    for fmt in ("text", "json"):
        by_cos = run(["classify", f"--entries={entry},0,0", "--format", fmt], capsys)
        by_value = run(["classify", f"--entries={value},0,0", "--format", fmt], capsys)
        assert by_cos == by_value and by_cos[0] == 0 and by_cos[2] == ""


def test_classify_takes_a_negative_first_entry_after_an_equals_sign(capsys):
    code, out, err = run(["classify", "--entries=-2,0,0"], capsys)
    assert code == 0 and err == ""
    assert "Decomposable(weight=2)" in out


@pytest.mark.parametrize(
    "entries, pair",
    [
        ("cos(2/10),-cos(2/10),cos(2/10)", "t1=1/3, t2=1/5"),
        ("cos(1/5),-cos(1/5),cos(1/5)", "t1=1/3, t2=1/5"),
        ("cos(4/10),cos(4/10),cos(4/10)", "t1=1/3, t2=2/5"),
    ],
)
def test_classify_finds_the_spherical_pair_at_any_entry_level(entries, pair, capsys):
    code, out, err = run(["classify", "--entries", entries], capsys)
    assert code == 0 and err == ""
    assert f"class: FiniteType({pair})" in out


@pytest.mark.parametrize("entries", ["cos(2/5),0,cos(2/5)", "3,cos(1/3),0"])
def test_classify_certifies_an_infinite_class(entries, capsys):
    # (2/5, 2/5) has C < 4 and is infinite; an entry 3 is its own witness
    code, out, err = run(["classify", "--entries", entries], capsys)
    assert code == 0 and err == ""
    assert "class: MutationInfinite" in out


@pytest.mark.parametrize(
    "pair, entries", [("0,0", "2,0,2"), ("1,1", "-2,0,-2"), ("0,1", "2,0,-2")]
)
def test_classify_sph_reads_whole_multiples_of_pi(pair, entries, capsys):
    # 2cos(0) = 2 and 2cos(pi) = -2 are rational: their level is still 2
    for fmt in ("text", "json"):
        by_sph = run(["classify", "--sph", pair, "--format", fmt], capsys)
        by_entries = run(["classify", f"--entries={entries}", "--format", fmt], capsys)
        assert by_sph == by_entries and by_sph[0] == 0 and by_sph[2] == ""
        assert "MutationInfinite" in by_sph[1]


def test_enumerate_sph_counts(capsys):
    code, out, err = run(["enumerate", "--sph", "1/5,2/5"], capsys)
    assert code == 0
    assert json.loads(out)["vertices"] == 40
    assert "closed=True" in err


def test_enumerate_affine_exports(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run(
        ["enumerate", "--affine", "5", "--depth", "4", "--format", "dot", "--out", str(dot)],
        capsys,
    )
    assert code == 0
    assert dot.read_text().startswith("graph exchange {")
    svg = tmp_path / "g.svg"
    code, _, _ = run(
        ["enumerate", "--affine", "5", "--depth", "4", "--format", "svg", "--out", str(svg)],
        capsys,
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_enumerate_deterministic_json(tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(
            [
                "enumerate", "--affine", "5", "--depth", "5",
                "--format", "json", "--out", str(path), "--seed", "7",
            ],
            capsys,
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_rank2_csv(tmp_path, capsys):
    path = tmp_path / "periods.csv"
    code, _, _ = run(["rank2", "--max-b", "5", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,u_halfsteps,period"
    assert any(line.startswith("1,3,") and line.endswith(",5") for line in lines)


def test_verify_subcommand_runs_named_checks(capsys):
    code, out, _ = run(
        ["verify", "--checks", "verlinde,rank2-periods"], capsys
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_matrix_file_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(["2", "-cos(1/5)", "cos(1/5)"]))
    code, out, _ = run(["classify", "--matrix", str(path)], capsys)
    assert code == 0
    assert "Affine(d=5)" in out


@pytest.mark.parametrize(
    "data",
    [
        {"entries": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]},
        {"entries": [[{"level": 5}]]},
        {"b12": "2", "b13": "-cos(1/5)", "b23": "cos(1/5)"},
        ["2,-cos(1/5)", "cos(1/5)"],
    ],
)
def test_matrix_file_other_than_a_list_of_three_exits_2(data, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["classify", "--matrix", str(path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "unrecognised matrix file format" in err and "Traceback" not in err


def test_verify_rejects_unknown_check_names(capsys, monkeypatch):
    from quiverbelt import verification

    ran = []
    monkeypatch.setattr(
        verification, "CHECKS", {n: lambda **kw: ran.append(kw) for n in verification.CHECKS}
    )
    code, out, err = run(["verify", "--checks", "nonsense,verlinde"], capsys)
    assert code == 2
    assert out == "" and not ran
    assert len(err.splitlines()) == 1
    assert "nonsense" in err and "verlinde" in err and "number-theory" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["enumerate", "--entries", "2,-2,2", "--max-vertices", "64"],
            "MarkovClass has no exchange",
        ),
        (["classify", "--entries", "foo,1,2"], "cannot parse entry 'foo'"),
        (["enumerate", "--affine", "2"], "d must be at least 3"),
        (["classify", "--matrix", "no-such-matrix.json"], "no-such-matrix.json"),
        (["classify", "--entries", "1/0,0,0"], "zero denominator in entry '1/0'"),
        (["enumerate", "--sph", "1/0,1/3"], "zero denominator in --sph value '1/0'"),
        (["enumerate", "--sph", "1/3"], "--sph needs exactly two values"),
        (["enumerate", "--sph", "1/3,2/5,1"], "--sph needs exactly two values"),
        (["enumerate", "--sph", "x,1/3"], "cannot parse --sph value 'x'"),
        (["enumerate", "--affine", "0"], "d must be at least 3"),
        (["classify", "--affine", "0"], "d must be at least 3"),
        (
            ["enumerate", "--affine", "5", "--max-vertices", "-3"],
            "--max-vertices must not be negative, got -3",
        ),
        (["enumerate", "--affine", "5", "--depth", "-1"], "--depth must not be negative"),
        (["classify", "--entries", "0,0,3"], "rational entry 3 is not 2cos(pi k/l)"),
        (["enumerate", "--entries", "0,1/2,0"], "rational entry 1/2 is not 2cos(pi k/l)"),
        (["rank2", "--max-b", "-2"], "--max-b must not be negative"),
        (["classify", "--entries", "cos(1/3)"], "matrix spec needs 3 upper-triangle entries"),
        (
            ["enumerate", "--sph", "1/3,2/5", "--depth", "1"],
            "--depth and --max-vertices do not apply to finite-type classes",
        ),
        (
            ["enumerate", "--sph", "1/3,2/5", "--max-vertices", "5"],
            "--depth and --max-vertices do not apply to finite-type classes",
        ),
        (
            ["enumerate", "--entries", "cos(1/3),cos(1/3),0", "--depth", "0"],
            "--depth and --max-vertices do not apply to finite-type classes",
        ),
        # enumerate realises finite and affine classes only
        (
            ["enumerate", "--entries", "cos(1/7),cos(2/7),cos(3/7)"],
            "MutationInfinite has no exchange graph to enumerate",
        ),
        (
            ["enumerate", "--entries", "cos(2/5),0,cos(2/5)"],
            "MutationInfinite has no exchange graph to enumerate",
        ),
        (
            ["enumerate", "--entries", "3,cos(1/3),0"],
            "MutationInfinite has no exchange graph to enumerate",
        ),
        (
            ["enumerate", "--entries", "cos(1/3),0,0"],
            "Decomposable(weight=cos(1/3)) has no exchange graph to enumerate",
        ),
        # a run takes one matrix source
        (
            ["enumerate", "--affine", "5", "--entries", "2,-2,2", "--depth", "2"],
            "give one matrix source, got --affine and --entries",
        ),
        (
            ["classify", "--sph", "1/3,1/3", "--entries", "2,-2,2"],
            "give one matrix source, got --sph and --entries",
        ),
        (["verify", "--levels", "5,x"], "--levels needs comma-separated integers, got '5,x'"),
        (["verify", "--levels", ""], "--levels must not be empty"),
        (["verify", "--checks", ""], "--checks must not be empty"),
        # 2cos(0) = 2 is rational: --sph 0,0 reaches the class check
        (["enumerate", "--sph", "0,0"], "MutationInfinite has no exchange graph to enumerate"),
        # each element of a --matrix list is exactly one entry
        (["classify", "--matrix", "split.json"], "cannot parse entry '1,2'"),
        # a --matrix file that is not JSON, or not UTF-8, is named
        (
            ["classify", "--matrix", "empty.json"],
            "cannot read matrix file empty.json: Expecting value",
        ),
        (
            ["classify", "--matrix", "binary.json"],
            "cannot read matrix file binary.json: 'utf-8' codec can't decode byte 0xff",
        ),
        # a --matrix element that is not a JSON number or string is named as written
        (
            ["classify", "--matrix", "null.json"],
            "matrix file null.json: entry null is not a number or a string",
        ),
        (
            ["classify", "--matrix", "true.json"],
            "matrix file true.json: entry true is not a number or a string",
        ),
        (
            ["classify", "--matrix", "nested.json"],
            "matrix file nested.json: entry [1] is not a number or a string",
        ),
        # an explicit --max-vertices 0 is given, not absent
        (
            ["enumerate", "--sph", "1/3,1/3", "--max-vertices", "0"],
            "--depth and --max-vertices do not apply to finite-type classes",
        ),
    ],
)
def test_handled_errors_print_one_line_and_exit_2(
    args, message, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "split.json").write_text(json.dumps(["1,2", "3", ""]))
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "binary.json").write_bytes(b"\xff[1, 2, 3]")
    (tmp_path / "null.json").write_text("[2, null, 1]")
    (tmp_path / "true.json").write_text("[2, true, 1]")
    (tmp_path / "nested.json").write_text("[2, [1], 1]")
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err


def test_affine_enumeration_reports_the_partial_graph_on_budget(capsys):
    code, out, err = run(
        ["enumerate", "--affine", "5", "--depth", "8", "--max-vertices", "30"], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["vertices"] == 30 and summary["closed"] is False
    assert "enumerated 30 seeds" in err


def test_enumerate_depth_zero_is_the_one_seed_window(capsys):
    code, out, err = run(["enumerate", "--affine", "3", "--depth", "0"], capsys)
    assert code == 0
    assert json.loads(out) == {"vertices": 1, "edges": 0, "closed": False, "depth": 0}
    assert "enumerated 1 seeds" in err
    code, out, _ = run(["enumerate", "--affine", "3"], capsys)
    assert json.loads(out)["depth"] == 14


def test_enumerate_help_names_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "0 gives the initial seed alone (default: 14 for affine d <= 7" in text
    assert "vertex limit of an affine window; 0 (the default) means no limit" in text
    assert "4096" not in text and "infinite non-affine" not in text
    assert "Mutation-infinite, Markov and decomposable classes have none" in text
    assert text.count("rejected for classes of finite type") == 2
    assert "as in --entries=-2,0,0" in text and "--budget" not in text


@pytest.mark.parametrize(
    "entries, level",
    [("2,-cos(1/5),cos(1/5)", 5), ("cos(1/3),cos(1/3),cos(1/3)", 3)],
)
def test_enumerate_realises_an_affine_class_given_by_entries(entries, level, capsys):
    opts = ["--depth", "5", "--format", "json", "--seed", "7"]
    code, by_entries, _ = run(["enumerate", "--entries", entries, *opts], capsys)
    assert code == 0
    code, by_level, _ = run(["enumerate", "--affine", str(level), *opts], capsys)
    assert code == 0 and by_entries == by_level
    # the summary names the class, and a vertex cap gives the partial window
    code, out, err = run(
        ["enumerate", "--entries", entries, "--max-vertices", "30"], capsys
    )
    assert code == 0 and "enumerated 30 seeds" in err
    summary = json.loads(out)
    assert summary["vertices"] == 30 and summary["closed"] is False
    assert summary["depth"] == 14 and summary["class"] == f"Affine(d={level})"


def record_checks(monkeypatch):
    """Replace every check with one that records its keyword arguments."""
    from quiverbelt import verification

    calls = {}

    def recorder(name):
        def check(**kwargs):
            calls[name] = kwargs
            return verification.CheckResult(name, True, "recorded")

        return check

    checks = {name: recorder(name) for name in verification.CHECKS}
    monkeypatch.setattr(verification, "CHECKS", checks)
    return calls


def test_verify_levels_reach_every_check_that_takes_levels(capsys, monkeypatch):
    from quiverbelt.verification import LEVEL_CHECKS

    calls = record_checks(monkeypatch)
    code, out, _ = run(["verify", "--levels", "5,7"], capsys)
    assert code == 0 and out.count("PASS") == len(calls) == 11
    for name, kwargs in calls.items():
        assert kwargs.get("levels") == ((5, 7) if name in LEVEL_CHECKS else None)


def test_verify_runs_each_repeated_level_once(capsys):
    # as a repeated check name runs the check once
    code, out, _ = run(
        ["verify", "--checks", "belt-periodicity,belt-periodicity", "--levels", "7,5,7,5"],
        capsys,
    )
    assert code == 0 and out.count("belt-periodicity") == 1
    assert "levels (7, 5):" in out


def test_verify_without_levels_runs_each_checks_own_levels(capsys, monkeypatch):
    from quiverbelt import verification

    defaults = {
        name: inspect.signature(verification.CHECKS[name]).parameters["levels"].default
        for name in verification.LEVEL_CHECKS
    }
    assert defaults == {
        "affine-invariants": (3, 5, 7),
        "belt-periodicity": (3, 5, 7),
        "translated-belts": (5, 7),
        "quotient-census": (5, 7),
        "even-denominators": (4, 6, 8),
    }
    calls = record_checks(monkeypatch)
    code, _, _ = run(["verify"], capsys)
    assert code == 0
    assert all(kwargs == {"seed": 2024} for kwargs in calls.values())


def test_checks_take_only_levels_and_seed():
    # every size a check reads is a module constant: a size passed by
    # keyword would vanish into **_ unread
    from quiverbelt import verification

    for name, check in verification.CHECKS.items():
        params = inspect.signature(check).parameters.values()
        assert {p.name for p in params if p.kind is not p.VAR_KEYWORD} <= {
            "levels",
            "seed",
        }, name
        assert [p.name for p in params if p.kind is p.VAR_KEYWORD] == ["_"], name


def test_verify_runs_the_requested_level(capsys):
    code, out, _ = run(
        ["verify", "--checks", "belt-periodicity", "--levels", "9"], capsys
    )
    assert code == 0
    assert out.startswith("PASS belt-periodicity") and "levels (9,):" in out
    code, out, _ = run(["verify", "--checks", "belt-periodicity"], capsys)
    assert code == 0 and "levels (3, 5, 7):" in out


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(
            ["verify", "--checks", "belt-periodicity", "--levels", "4"],
            "levels d >= 3, not",
            id="args0",
        ),
        pytest.param(
            ["verify", "--checks", "verlinde,quotient-census", "--levels", "5,6"],
            "levels d >= 3, not",
            id="args1",
        ),
        pytest.param(
            ["verify", "--checks", "affine-invariants", "--levels", "2"],
            "levels d >= 3, not",
            id="args2",
        ),
        # no selected check takes levels at all
        pytest.param(
            ["verify", "--checks", "verlinde", "--levels", "2"],
            "no selected check takes levels",
            id="args3",
        ),
        pytest.param(
            ["verify", "--checks", "growth", "--levels", "5"],
            "no selected check takes levels",
            id="args4",
        ),
    ],
)
def test_verify_rejects_levels_a_check_cannot_take(args, message, capsys, monkeypatch):
    calls = record_checks(monkeypatch)
    code, out, err = run(args, capsys)
    assert code == 2 and out == "" and not calls
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("value", ["abc", "3"])
def test_precision_variable_is_not_read(value, tmp_path, monkeypatch):
    from quiverbelt.cycfield import _initial_sign_bits

    monkeypatch.setenv("QUIVERBELT_PRECISION_BITS", value)
    assert _initial_sign_bits() == 64
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quiverbelt.cli", "verify", "--checks", "verlinde"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("PASS verlinde")


# sha256 of `enumerate --sph PAIR --seed 3 --format FMT`, recorded when every
# spherical vector, pairing and matrix was computed afresh at each mutation;
# the class tables must not move a byte
SPH_EXPORTS = {
    ("1/3,1/3", "json"): "4357c34e89f54046237471a025c554e8acb64aa32dc061b697d882cd922b6a43",
    ("1/3,1/3", "dot"): "05239f1a495a41b893c853923ed28350159256a0a4fdfe836beaef8c8fe94acf",
    ("1/3,1/4", "json"): "cd07a46dd3dd123cbaab4c5b2f196e0faa29f20bbc7161ad57a0ecb83255d064",
    ("1/3,1/4", "dot"): "b93491e40c5a7d9383ea5c29d5c104c9538e9270554d56d6aa8b2532c8c41410",
    ("1/3,1/5", "json"): "cb0b7c12440845bfc9524587c9e4104dbe6b2f831d684b9f19e1c3a232d2088f",
    ("1/3,1/5", "dot"): "074641242915ba48b3ab752fb048d55f58b17adf8ef005eb41047877327b803d",
    ("1/3,2/5", "json"): "5df4baa3274fab32983e02e8b3dce63187e0c89e56275658cf7cc97dbe570e67",
    ("1/3,2/5", "dot"): "f028efa2d7fe0ad9f6cbbcec1dcefa390f7e6d08baad95df39400279ad5252b5",
    ("1/5,2/5", "json"): "e3d40647b2d6c5ea2bb4d7467be98240171b5578b609810eb9c7064b5d9e08d7",
    ("1/5,2/5", "dot"): "68c6355ef3d2a73d75162ffe0a2244ef655031bae86ce5e3559e89875eab4395",
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("pair", sorted({pair for pair, _ in SPH_EXPORTS}))
def test_enumerate_sph_exports_are_pinned_under_any_hash_seed(
    pair, hash_seed, tmp_path
):
    """The json and dot exports of each finite class are the recorded bytes
    in a fresh interpreter, whatever its hash seed does to set and dict
    order."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=hash_seed)
    for fmt in ("json", "dot"):
        proc = subprocess.run(
            [sys.executable, "-m", "quiverbelt.cli", "enumerate", "--sph", pair,
             "--seed", "3", "--format", fmt],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == SPH_EXPORTS[pair, fmt], fmt
