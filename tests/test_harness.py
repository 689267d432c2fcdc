import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from l0limits.errors import DocumentError
from l0limits.harness import (
    CHECK_KINDS,
    CheckSpec,
    DocumentBuilder,
    dump_document,
    load_document,
    parse_document,
    render_structured,
    render_text,
    run_check,
    run_checks,
    serialize_document,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "l0limits.harness.cli", *args],
        capture_output=True,
        text=True,
    )


def test_fixture_suite_structured_output_is_byte_stable():
    """The structured report of every fixture is part of the behaviour
    contract: compare it byte for byte with the committed copy."""
    root = FIXTURES.parent
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_fixture_suite.py"), "--format", "structured"],
        capture_output=True,
        check=True,
    ).stdout
    assert out == (root / "tests" / "data" / "fixture_suite_structured.txt").read_bytes()


def test_fixtures_exist():
    names = {p.name for p in ALL_FIXTURES}
    assert names == {
        "remark-faithful.json",
        "harmonic-inverse.json",
        "scaling-surjectivity.json",
        "fg-presentation.json",
        "sections-product.json",
        "pullback-commute.json",
    }


def test_minimal_document_loads():
    data = {
        "format_version": 1,
        "spaces": {"X": {"atoms": ["a"], "weights": [1]}},
        "norms": {"n": {"kind": "weighted_p", "p": 2, "weights": [1, 1]}},
        "modules": {
            "M": {"space": "X", "fibers": [{"dim": 2, "norm": "n"}]}
        },
    }
    doc = parse_document(data)
    assert doc.modules["M"].dims() == (2,)


def test_negative_weight_names_atom():
    data = {
        "format_version": 1,
        "spaces": {"X": {"atoms": ["a", "bad"], "weights": [1, -1]}},
    }
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert "bad" in str(err.value)
    assert "$.spaces.X" in str(err.value)


def test_unresolved_reference_reports_path():
    data = {
        "format_version": 1,
        "spaces": {"X": {"atoms": ["a"], "weights": [1]}},
        "functions": {"f": {"space": "nope", "values": [1]}},
    }
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert "$.functions.f.space" in str(err.value)


def test_rational_literals_parse():
    data = {
        "format_version": 1,
        "spaces": {"X": {"atoms": ["a", "b"], "weights": ["1/2", "3/2"]}},
    }
    doc = parse_document(data)
    assert doc.spaces["X"].weights.tolist() == [0.5, 1.5]


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_round_trip_is_byte_identical(path):
    text = path.read_text(encoding="utf-8")
    doc = parse_document(json.loads(text))
    assert dump_document(serialize_document(doc)) == text


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_reports_all_pass(path):
    doc = load_document(str(path))
    report = run_checks(doc, document_name=path.name)
    assert report.exit_code == 0, render_text(report)
    # counterexample fixtures carry their designed failure witness
    for result in report.results:
        if result.expected == "fail":
            assert result.raw_outcome == "fail"
            assert result.witness


def test_scaling_fixture_negative_witness():
    doc = load_document(str(FIXTURES / "scaling-surjectivity.json"))
    report = run_checks(doc, document_name="scaling")
    by_name = {r.name: r for r in report.results}
    neg = by_name["surjectivity-lost-in-limit"]
    assert neg.raw_outcome == "fail" and neg.verdict == "pass"
    assert neg.witness["stages_surjective"] is True
    assert neg.witness["limit_surjective"] is False


def test_injected_cocycle_violation_fails_with_witness():
    builder = DocumentBuilder()
    from l0limits.direct import DirectSystem
    from l0limits.indexsets import FinitePoset
    from l0limits.measure import AtomicMeasureSpace
    from l0limits.modules import ModuleMorphism, euclidean_module, identity_morphism

    pt = AtomicMeasureSpace(["pt"], [1.0])
    builder.add_space("pt", pt)
    plane = euclidean_module(pt, 2)
    builder.add_module("plane", plane)
    poset = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    swap = ModuleMorphism(plane, plane, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    system = DirectSystem(
        poset,
        {"0": plane, "1": plane, "2": plane},
        {
            ("0", "1"): identity_morphism(plane),
            ("1", "2"): identity_morphism(plane),
            ("0", "2"): swap,
        },
    )
    builder.add_system("broken", system)
    builder.add_check("broken-cocycle", "validate-system", system="broken")
    doc = parse_document(json.loads(dump_document(builder.data)))
    report = run_checks(doc, document_name="broken")
    assert report.exit_code == 1
    result = report.results[0]
    assert result.verdict == "fail"
    violation = result.witness["violations"][0]
    assert violation["kind"] == "cocycle"
    assert violation["indices"] == ["0", "1", "2"]
    assert violation["deviation"] == pytest.approx(1.0)


def test_invalid_system_morphism_fails_functor_square():
    """A morphism with a broken square induces no limit map: its functor
    check fails with the violation count, so a counterexample passes."""
    from l0limits import randgen
    from l0limits.measure import AtomicMeasureSpace
    from l0limits.modules import scale_morphism
    from l0limits.systems import SystemMorphism

    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(5), space)
    broken = {**theta.components, 0: scale_morphism(theta.components[0], 0.5)}
    builder = DocumentBuilder()
    builder.add_space("X", space)
    builder.add_system("S", theta.source)
    builder.add_system("T", theta.target)
    broken_theta = SystemMorphism(theta.source, theta.target, broken)
    builder.add_system_morphism("Broken", broken_theta, "S", "T")
    builder.add_check("broken-square", "functor-square", expect="fail", first="Broken")
    doc = parse_document(json.loads(dump_document(builder.data)))
    result = run_checks(doc).results[0]
    assert (result.raw_outcome, result.verdict) == ("fail", "pass")
    assert result.witness["first_violations"] >= 1
    assert result.provenance == ("limit-functor",)


def test_unknown_check_kind_is_error():
    doc = parse_document({"format_version": 1})
    result = run_check(doc, CheckSpec(name="x", kind="no-such-kind"))
    assert result.verdict == "error"


def test_missing_reference_in_check_is_error_verdict():
    doc = parse_document({"format_version": 1})
    result = run_check(
        doc, CheckSpec(name="x", kind="functor-square", params={"first": "ghost"})
    )
    assert result.verdict == "error"
    assert "ghost" in result.witness["reason"]


def test_greatest_element_check_kind():
    data = {
        "format_version": 1,
        "index_sets": {
            "three-chain": {
                "kind": "finite_poset",
                "elements": ["0", "1", "2"],
                "relation": [["0", "1"], ["1", "2"]],
            }
        },
        "checks": [
            {"name": "top", "kind": "greatest-element", "index_set": "three-chain"}
        ],
    }
    doc = parse_document(data)
    report = run_checks(doc, document_name="chain")
    assert report.exit_code == 0
    assert report.results[0].witness["top"] == "2"


def test_structured_report_deterministic():
    doc = load_document(str(FIXTURES / "remark-faithful.json"))
    a = render_structured(run_checks(doc, seed=0, document_name="d"))
    b = render_structured(run_checks(doc, seed=0, document_name="d"))
    assert a == b
    payload = json.loads(a)
    assert payload["tolerance"] == 1e-9
    assert payload["seed"] == 0
    assert [c["name"] for c in payload["checks"]] == sorted(
        c["name"] for c in payload["checks"]
    )


def test_structured_report_mentions_out_of_scope_kernel_case():
    doc = load_document(str(FIXTURES / "remark-faithful.json"))
    payload = json.loads(render_structured(run_checks(doc)))
    notes = " ".join(payload["notes"])
    assert "kernel preservation" in notes
    assert "non-atomic" in notes


def test_empty_check_list_header_only():
    doc = parse_document({"format_version": 1})
    text = render_text(run_checks(doc, [], document_name="empty"))
    assert "summary: 0 passed, 0 failed, 0 errors" in text


def test_cli_report_all_fixtures():
    for path in ALL_FIXTURES:
        proc = run_cli("report", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_validate_and_limit():
    path = str(FIXTURES / "harmonic-inverse.json")
    proc = run_cli("validate", path)
    assert proc.returncode == 0
    assert "validate-shrinking" in proc.stdout
    proc = run_cli("limit", "--kind", "inverse", path, "--format", "structured")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    dims = payload["checks"][0]["witness"]["dims"]
    assert dims == {"a": 0, "b": 0}


def test_cli_check_filters_by_kind():
    path = str(FIXTURES / "remark-faithful.json")
    proc = run_cli("check", "--name", "functor-square", path)
    assert proc.returncode == 0
    assert "validate-M" not in proc.stdout
    assert "collapse-distinct-morphisms" in proc.stdout


def test_cli_exit_codes():
    missing = run_cli("report", "no-such-file.json")
    assert missing.returncode == 2
    assert "error" in missing.stderr


def _set(*keys, value):
    """An edit of a parsed document: set the value at ``keys``."""
    def edit(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _on_chain_M(*keys, value):
    """``_set`` on the document whose index set ``idx_M`` is a 2-stage chain."""
    chain = _set("index_sets", "idx_M", value={"kind": "chain", "stages": 2,
                                               "tail": {"kind": "identity"}})

    def edit(data):
        chain(data)
        _set(*keys, value=value)(data)
    return edit


@pytest.mark.parametrize("edit,where", [
    (_set("spaces", "dirac", value={"atoms": ["pt", "q"], "weights": [1]}), "$.spaces.dirac"),
    (_set("spaces", value=5), "$.spaces"),
    (_set("spaces", value=[]), "$.spaces"),
    (_set("functions", value={"f": [1]}), "$.functions.f"),
    (_set("modules", "plane", "fibers", value=3), "$.modules.plane.fibers"),
    (_set("modules", "plane", "fibers", 0, value={"dim": "two"}), "$.modules.plane.fibers[0].dim"),
    (_set("system_morphisms", value={"T": 1}), "$.system_morphisms.T"),
    (_set("systems", "M", "maps", value=3), "$.systems.M"),
    (_set("checks", value=5), "$.checks"),
    (_set("checks", 0, "seed", value="x"), "$.checks[0].seed"),
    (_set("checks", 0, "seed", value=1.5), "$.checks[0].seed"),
    (_set("checks", 0, "seed", value=True), "$.checks[0].seed"),
    (_set("modules", "plane", "fibers", 0, "dim", value=2.9), "$.modules.plane.fibers[0].dim"),
    (_set("index_sets", "idx_M", value={"kind": "chain", "stages": 2.5}), "$.index_sets.idx_M.stages"),
    (_set("norms", "op", value={"kind": "operator", "source_dim": True, "source_norm": "n0",
                                "target_dim": 2, "target_norm": "n0"}), "$.norms.op.source_dim"),
    (_set("norms", "op", value={"kind": "operator", "source_dim": 2, "source_norm": "n0",
                                "target_dim": 2.5, "target_norm": "n0"}), "$.norms.op.target_dim"),
    (_set("checks", 0, "tol", value=0), "$.checks[0].tol"),
    (_set("checks", 0, "tol", value=-1e-9), "$.checks[0].tol"),
    (_set("checks", 0, "expect", value="fial"), "$.checks[0].expect"),
    (_set("checks", 0, "expect", value=True), "$.checks[0].expect"),
    (_on_chain_M("systems", "M", "modules", "99", value="plane"), "$.systems.M.modules.99"),
    (_on_chain_M("systems", "M", "modules", "-1", value="plane"), "$.systems.M.modules.-1"),
    (_on_chain_M("systems", "M", "maps", "0|99", value="M_phi_0_1"), "$.systems.M.maps.0|99"),
    (_set("morphisms", "Eta_theta_0", "matrices", value=[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]),
     "$.morphisms.Eta_theta_0"),
], ids=["short-weights", "spaces-number", "spaces-array", "function-array", "fibers-number",
        "dim-text", "system-morphism-number", "maps-number", "checks-number", "seed-text",
        "seed-fraction", "seed-boolean", "dim-fraction", "stages-fraction",
        "source-dim-boolean", "target-dim-fraction", "tol-zero", "tol-negative",
        "expect-misspelt", "expect-boolean", "module-past-the-chain", "negative-module-stage",
        "map-past-the-chain", "one-matrix-too-many"])
def test_cli_reports_malformed_documents_at_their_path(tmp_path, capsys, edit, where):
    """A malformed entry is an error (exit 2) naming its path, never a
    traceback."""
    from l0limits.harness.cli import main

    data = json.loads((FIXTURES / "remark-faithful.json").read_text())
    edit(data)
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data))
    assert main(["report", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: "), err


@pytest.mark.parametrize("value", [1.5, True, "x"], ids=["fraction", "boolean", "text"])
def test_expected_dims_must_be_integers(value):
    """``expect_dims`` values follow the rule of the document's integer
    fields: the check is an error naming the value's path, never a
    truncated or coerced comparison."""
    data = json.loads((FIXTURES / "remark-faithful.json").read_text())
    data["checks"].append(
        {"kind": "direct-limit", "name": "zz-dims", "system": "M", "expect_dims": {"pt": value}}
    )
    doc = parse_document(data)
    result = next(r for r in run_checks(doc).results if r.name == "zz-dims")
    assert result.verdict == "error"
    k = len(data["checks"]) - 1
    assert result.witness["reason"].startswith(f"$.checks[{k}].expect_dims.pt: ")
    data["checks"][-1]["expect_dims"] = {"pt": 2.0}
    result = next(r for r in run_checks(parse_document(data)).results if r.name == "zz-dims")
    assert result.verdict == "pass"


def test_cli_reports_undecodable_bytes_at_the_root(tmp_path, capsys):
    from l0limits.harness.cli import main

    target = tmp_path / "latin1.json"
    target.write_bytes('{"format_version": 1, "spaces": {"\u00e9": 1}}'.encode("latin-1"))
    assert main(["report", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON: ")


def test_cli_mixed_pass_fail_exit_one(tmp_path):
    # a passing check plus a failing expectation yields exit code 1
    doc_text = (FIXTURES / "remark-faithful.json").read_text()
    data = json.loads(doc_text)
    data["checks"].append(
        {
            "kind": "direct-limit",
            "name": "zz-wrong-dims",
            "system": "M",
            "expect_dims": {"pt": 5},
        }
    )
    target = tmp_path / "mixed.json"
    target.write_text(dump_document(data))
    proc = run_cli("report", str(target))
    assert proc.returncode == 1
    assert "[FAIL] zz-wrong-dims" in proc.stdout


def test_cli_tolerance_flag_threads_through():
    path = str(FIXTURES / "remark-faithful.json")
    proc = run_cli("--tol", "1e-6", "report", path, "--format", "structured")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tolerance"] == 1e-6


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, bad):
    """An infinite tolerance would pass every law; zero, negative and NaN
    ones are an error too (exit 2), never a traceback."""
    from l0limits.harness.cli import main

    assert main(["--tol", bad, "report", str(FIXTURES / "remark-faithful.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance must be finite and positive, got ")
    assert captured.out == ""


def test_cli_structured_deterministic_bytes():
    path = str(FIXTURES / "pullback-commute.json")
    a = run_cli("report", path, "--format", "structured", "--seed", "3")
    b = run_cli("report", path, "--format", "structured", "--seed", "3")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("keys,where", [
    (("morphisms", "M_phi_0_1", "matrices", 0, 0, 0), "$.morphisms.M_phi_0_1.matrices[0][0][0]"),
    (("norms", "n0", "weights", 1), "$.norms.n0.weights[1]"),
    (("spaces", "dirac", "weights", 0), "$.spaces.dirac.weights[0]"),
], ids=["matrix", "norm", "space"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge"])
def test_loader_rejects_non_finite_numbers(keys, where, bad):
    data = json.loads((FIXTURES / "remark-faithful.json").read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = bad
    with pytest.raises(DocumentError) as raised:
        parse_document(data)
    assert raised.value.path == where


_BAD_CHAIN_KEYS = {
    "universal-direct": ("fg-presentation.json", {
        "kind": "universal-direct", "system": "generated-chain",
        "target_module": "ambient", "target_maps": {"0": "include_0", "x": "include_1"},
    }, ".target_maps.x"),
    "universal-inverse": ("harmonic-inverse.json", {
        "kind": "universal-inverse", "system": "shrinking",
        "source_module": "plane2", "source_maps": {"x": "shrinking_phi_0_1"},
    }, ".source_maps.x"),
    "functor-square-given": ("fg-presentation.json", {
        "kind": "functor-square", "solve": {
            "source_system": "generated-chain", "target_system": "generated-chain",
            "given": {"x": "generated-chain_phi_0_1"}, "solve_for": "0",
        },
    }, ".solve.given.x"),
    "functor-square-solve-for": ("fg-presentation.json", {
        "kind": "functor-square", "solve": {
            "source_system": "generated-chain", "target_system": "generated-chain",
            "given": {"1": "generated-chain_phi_0_1"}, "solve_for": "x",
        },
    }, ".solve.solve_for"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHAIN_KEYS))
def test_non_integer_chain_key_in_a_check_names_its_path(case):
    """A chain stage key in a check's parameters is parsed like the keys of
    systems: a non-integer key is an error verdict at its document path."""
    fixture, check, where = _BAD_CHAIN_KEYS[case]
    data = json.loads((FIXTURES / fixture).read_text())
    k = len(data["checks"])
    data["checks"].append({"name": "zz-bad-key", **check})
    report = run_checks(parse_document(data))
    result = next(r for r in report.results if r.name == "zz-bad-key")
    assert result.verdict == "error"
    assert result.witness["reason"] == (
        f"$.checks[{k}]{where}: chain stage 'x' is not an integer"
    )


_MISMATCHED_KINDS = {
    "direct-limit": ("harmonic-inverse.json", {"system": "shrinking"}, "inverse"),
    "dual-iso": ("harmonic-inverse.json", {"system": "shrinking"}, "inverse"),
    "hom-iso": ("harmonic-inverse.json", {"system": "shrinking", "module": "plane2"}, "inverse"),
    "pullback-commute": ("pullback-commute.json", {
        "system": "two-stage-inverse", "atom_map": "two-to-one",
    }, "inverse"),
    "il-pullback-compare": ("pullback-commute.json", {
        "system": "two-stage", "atom_map": "two-to-one",
    }, "direct"),
    "universal-direct": ("harmonic-inverse.json", {
        "system": "shrinking", "target_module": "plane2",
        "target_maps": {"0": "shrinking_phi_0_1"},
    }, "inverse"),
    "inverse-limit": ("fg-presentation.json", {"system": "generated-chain"}, "direct"),
    "universal-inverse": ("fg-presentation.json", {
        "system": "generated-chain", "source_module": "ambient",
        "source_maps": {"0": "include_0"},
    }, "direct"),
}


@pytest.mark.parametrize("kind", sorted(_MISMATCHED_KINDS))
def test_limit_and_universal_checks_need_a_system_of_their_direction(kind):
    """A limit, universal, Hom, dual or pullback check concerns direct or
    inverse limits, not both: on a system of the other direction it is an
    error verdict at the check's system parameter."""
    fixture, params, actual = _MISMATCHED_KINDS[kind]
    data = json.loads((FIXTURES / fixture).read_text())
    k = len(data["checks"])
    data["checks"].append({"name": "zz-mismatch", "kind": kind, **params})
    report = run_checks(parse_document(data))
    result = next(r for r in report.results if r.name == "zz-mismatch")
    assert result.verdict == "error"
    wanted = "inverse" if actual == "direct" else "direct"
    assert result.witness["reason"] == (
        f"$.checks[{k}].system: {kind} needs a system of kind {wanted!r}, "
        f"{params['system']!r} is {actual!r}"
    )


def _chain_solve(solve_for, given=None):
    """A ``solve`` group on the 7-stage chain of ``fg-presentation.json``."""
    return {"source_system": "generated-chain", "target_system": "generated-chain",
            "given": given or {"1": "generated-chain_phi_0_1"}, "solve_for": solve_for}


_UNKNOWN_IDS = {
    "system": ("harmonic-inverse.json", {
        "kind": "inverse-limit", "system": "nope",
    }, "system: unknown system 'nope'"),
    "source_module": ("harmonic-inverse.json", {
        "kind": "universal-inverse", "system": "shrinking", "source_module": "nope",
        "source_maps": {},
    }, "source_module: unknown module 'nope'"),
    "atom_map": ("pullback-commute.json", {
        "kind": "pullback-commute", "system": "two-stage", "atom_map": "nope",
    }, "atom_map: unknown atom map 'nope'"),
    "given": ("remark-faithful.json", {
        "kind": "functor-square",
        "solve": {"source_system": "M", "target_system": "N", "given": {"1": "nope"},
                  "solve_for": "0"},
    }, "solve.given.1: unknown morphism 'nope'"),
    "morphism": ("scaling-surjectivity.json", {
        "kind": "surjectivity-preserved",
    }, "morphism: missing system morphism id"),
    "misspelt-parameter": ("remark-faithful.json", {
        "kind": "direct-limit", "system": "M", "expect_dim": {"pt": 5},
    }, "expect_dim: direct-limit has no parameter 'expect_dim'"),
    "text-flag": ("harmonic-inverse.json", {
        "kind": "inverse-limit", "system": "shrinking", "expect_zero": "no",
    }, "expect_zero: expected true or false, got 'no'"),
    "greatest-of-a-chain": ("harmonic-inverse.json", {
        "kind": "greatest-element", "index_set": "idx_shrinking",
    }, "index_set: 'idx_shrinking' is a Chain, not a FinitePoset"),
    "group-beside-first": ("remark-faithful.json", {
        "kind": "functor-square", "first": "Theta", "solve": {},
    }, "first: functor-square takes 'first' or 'solve', not both"),
    "missing-stage": ("remark-faithful.json", {
        "kind": "functor-square", "solve": {"source_system": "M", "target_system": "N",
                                            "given": {"1": "identity_plane"}},
    }, "solve.solve_for: missing stage"),
    "stage-past-the-chain": ("fg-presentation.json", {
        "kind": "functor-square", "solve": _chain_solve("99"),
    }, "solve.solve_for: chain stage '99' is not in 0..6"),
    "negative-stage": ("fg-presentation.json", {
        "kind": "functor-square", "solve": _chain_solve("-3"),
    }, "solve.solve_for: chain stage '-3' is not in 0..6"),
    "given-past-the-chain": ("fg-presentation.json", {
        "kind": "functor-square", "solve": _chain_solve("0", given={"99": "include_0"}),
    }, "solve.given.99: chain stage '99' is not in 0..6"),
    "cone-map-past-the-chain": ("fg-presentation.json", {
        "kind": "universal-direct", "system": "generated-chain", "target_module": "ambient",
        "target_maps": {**{str(i): f"include_{i}" for i in range(7)}, "99": "include_0"},
    }, "target_maps.99: chain stage '99' is not in 0..6"),
    "incomplete-cone": ("fg-presentation.json", {
        "kind": "universal-direct", "system": "generated-chain", "target_module": "ambient",
        "target_maps": {"1": "include_1"},
    }, "target_maps: missing the map at stage '0'"),
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_IDS))
def test_unknown_ids_in_check_parameters_name_their_path(case):
    """An id in a check's parameters that names nothing in the document is
    an error verdict at the parameter's path, never a bare KeyError; so is
    any parameter its kind's contract refuses: a misspelt name is not
    ignored, a flag is a boolean, an index set is of the class its kind
    needs, a group is the only parameter and a required one is given, a
    chain stage is one of the chain's and a cone has a map at every stage."""
    fixture, check, where = _UNKNOWN_IDS[case]
    data = json.loads((FIXTURES / fixture).read_text())
    k = len(data["checks"])
    data["checks"].append({"name": "zz-unknown", **check})
    report = run_checks(parse_document(data))
    result = next(r for r in report.results if r.name == "zz-unknown")
    assert result.verdict == "error"
    assert result.witness["reason"] == f"$.checks[{k}].{where}"


#: The system direction each directed check kind needs.
_DIRECTIONS = {
    "direct-limit": "direct", "universal-direct": "direct", "pullback-commute": "direct",
    "dual-iso": "direct", "hom-iso": "direct", "inverse-limit": "inverse",
    "universal-inverse": "inverse", "il-pullback-compare": "inverse",
}


def _mutations(spec):
    """Each check ``spec`` turns into: another kind with the same
    parameters, each parameter dropped, each parameter renamed.  Yields
    (mutated spec, the renamed parameter or None)."""
    def variant(kind=spec.kind, params=spec.params):
        return CheckSpec(spec.name, kind, params, spec.tol, spec.seed, spec.expect)

    for kind in CHECK_KINDS:
        if kind != spec.kind:
            yield variant(kind=kind), None
    for name in spec.params:
        yield variant(params={n: v for n, v in spec.params.items() if n != name}), None
        renamed = f"{name}_x"
        yield variant(params={(renamed if n == name else n): v
                              for n, v in spec.params.items()}), renamed


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_mutated_fixture_checks_give_located_errors(path):
    """Swap each fixture check's kind, drop each parameter, rename each:
    no exception escapes, every error names a path below the check, a
    directed kind on a system of the other direction never passes, and a
    renamed parameter is never silently ignored."""
    doc = load_document(str(path))
    for k, spec in enumerate(list(doc.checks)):
        for mutated, renamed in _mutations(spec):
            doc.checks[k] = mutated
            result = run_checks(doc, [mutated]).results[0]
            case = (path.name, k, mutated.kind, sorted(mutated.params), result.witness)
            if result.verdict == "error":
                assert result.witness["reason"].startswith(f"$.checks[{k}]."), case
            if renamed is not None:
                assert result.verdict == "error", case
                assert result.witness["reason"].startswith(f"$.checks[{k}].{renamed}: "), case
            system = doc.systems.get(mutated.params.get("system"))
            if mutated.kind in _DIRECTIONS and system is not None \
                    and system.limit_kind != _DIRECTIONS[mutated.kind]:
                assert result.verdict == "error", case
        doc.checks[k] = spec


def test_empty_morphism_matrices_stand_for_zero_blocks_and_round_trip():
    """A morphism between a zero-dim fiber and a non-zero one may give its
    matrix as ``[]``; it parses to the zero block of the atom's shape,
    read-only, and serialize -> dump -> parse reproduces it byte for byte."""
    data = {
        "format_version": 1,
        "spaces": {"X": {"atoms": ["a", "b"], "weights": [1, 1]}},
        "norms": {"n": {"kind": "weighted_p", "p": 2, "weights": [1, 1]}},
        "modules": {
            "M": {"space": "X", "fibers": [{"dim": 2, "norm": "n"}, {"dim": 2, "norm": "n"}]},
            "Z": {"space": "X", "fibers": [{"dim": 0}, {"dim": 2, "norm": "n"}]},
        },
        "morphisms": {
            "in": {"source": "Z", "target": "M", "matrices": [[], [[1, 0], [0, 1]]]},
            "out": {"source": "M", "target": "Z", "matrices": [[], [[1, 0], [0, 1]]]},
        },
    }
    doc = parse_document(data)
    shapes = {pid: [m.shape for m in phi.matrices] for pid, phi in doc.morphisms.items()}
    assert shapes == {"in": [(2, 0), (2, 2)], "out": [(0, 2), (2, 2)]}
    for phi in doc.morphisms.values():
        assert all(m.dtype == np.float64 and not m.flags.writeable for m in phi.matrices)
    dumped = dump_document(serialize_document(doc))
    again = parse_document(json.loads(dumped))
    assert dump_document(serialize_document(again)) == dumped
    for pid, phi in doc.morphisms.items():
        assert [m.shape for m in again.morphisms[pid].matrices] == shapes[pid]
