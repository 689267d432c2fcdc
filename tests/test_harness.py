import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from l0limits.errors import DocumentError
from l0limits.harness import (
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
], ids=["short-weights", "spaces-number", "spaces-array", "function-array", "fibers-number",
        "dim-text", "system-morphism-number", "maps-number", "checks-number", "seed-text",
        "seed-fraction", "seed-boolean", "dim-fraction", "stages-fraction",
        "source-dim-boolean", "target-dim-fraction"])
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
    """A direct-* check on an inverse system, or an inverse-* check on a
    direct one, is an error verdict at the check's system parameter."""
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
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_IDS))
def test_unknown_ids_in_check_parameters_name_their_path(case):
    """An id in a check's parameters that names nothing in the document is
    an error verdict at the parameter's path, never a bare KeyError."""
    fixture, check, where = _UNKNOWN_IDS[case]
    data = json.loads((FIXTURES / fixture).read_text())
    k = len(data["checks"])
    data["checks"].append({"name": "zz-unknown", **check})
    report = run_checks(parse_document(data))
    result = next(r for r in report.results if r.name == "zz-unknown")
    assert result.verdict == "error"
    assert result.witness["reason"] == f"$.checks[{k}].{where}"
