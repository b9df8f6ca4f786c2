"""The verification runner, report serialization, and the command line."""

import json
import sys

import pytest

from modinv import cli, demazure, grp2, poly2, stable_chain, verify
from modinv.fp_linalg import Subspace
from modinv.report import Check, VerificationReport
from modinv.verify import UnknownTargetError, emit_report, run_verification


def test_run_verification_stableU_p3():
    (rep,) = run_verification([3], ["stableU"])
    assert rep.status == "pass"
    assert rep.prime == 3 and rep.target == "stableU"


def test_run_verification_weyl_p3():
    (rep,) = run_verification([3], ["weyl_examples"])
    assert rep.status == "pass"
    got = {c.name: c.got for c in rep.checks}
    assert got["psu3_classifies_as"] == "U(1,2)"


def test_run_verification_skips_formules_p2():
    (rep,) = run_verification([2], ["formules"])
    assert rep.status == "skipped"
    assert rep.checks[0].status == "skipped"
    assert "p > 2" in rep.checks[0].got


def test_run_verification_unknown_target():
    with pytest.raises(UnknownTargetError):
        run_verification([3], ["nonsense"])


def test_run_verification_sorted_output():
    reports = run_verification([5, 2], ["lemabinomial", "grups"])
    keys = [(r.prime, r.target) for r in reports]
    assert keys == sorted(keys)


def test_report_roundtrip():
    rep = VerificationReport(prime=3, target="demo", elapsed_ms=1.25)
    rep.add(Check.boolean("a", True))
    rep.add(Check.skip("b", "why not"))
    rep.add(Check("c", "fail", "1", "2"))
    # the dataclass compares field by field
    assert VerificationReport(3, "demo", list(rep.checks), 1.25) == rep
    assert VerificationReport(3, "demo", list(rep.checks), 2.5) != rep
    parsed = json.loads(emit_report([rep], "json"))
    assert parsed == [rep.to_dict()]


def test_report_status_rules():
    rep = VerificationReport(prime=3, target="demo")
    assert rep.status == "pass"
    rep.add(Check.skip("a", "r"))
    assert rep.status == "skipped"
    rep.add(Check.boolean("b", True))
    assert rep.status == "pass"
    rep.add(Check.boolean("c", False))
    assert rep.status == "fail"


def test_emit_report_empty_json():
    assert emit_report([], "json") == "[]\n"


def test_emit_report_text_table():
    (rep,) = run_verification([3], ["lemabinomial"])
    text = emit_report([rep], "text")
    assert "lemabinomial" in text and "PASS" in text
    with pytest.raises(ValueError):
        emit_report([rep], "yaml")


# -- CLI ------------------------------------------------------------------------


def test_cli_verify_genL_exit0(capsys):
    code = cli.cli_main(["verify", "--prime", "3", "--theorem", "genL"])
    assert code == 0
    out = capsys.readouterr().out
    assert "genL" in out


def test_cli_classify_prints_tag(capsys):
    code = cli.cli_main(["classify", "--prime", "3", "--matrices", "2,1;0,1 2,0;0,1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "U(2,1)"


def test_cli_rejects_nonprime():
    assert cli.cli_main(["verify", "--prime", "9", "--theorem", "genL"]) == 2


def test_cli_rejects_unknown_theorem():
    assert cli.cli_main(["verify", "--prime", "3", "--theorem", "bogus"]) == 2


def test_cli_degree_cap_refusal_exit2(monkeypatch, capsys):
    # a cap below the top degree is refused, never reported as a failed check
    monkeypatch.setenv("MODINV_MAX_DEGREE", "5")
    for target in ("stableL", "calculinvest", "baseL", "baseU", "basedos", "invariantsU"):
        assert cli.cli_main(["verify", "--prime", "3", "--theorem", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "degree cap 5" in err and "MODINV_MAX_DEGREE" in err
    monkeypatch.setenv("MODINV_MAX_DEGREE", "2")
    assert cli.cli_main(["gen", "--prime", "3", "--reflections", "1,1;0,2 1,0;0,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "through degree 2" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_cli_invalid_degree_cap_exit2(monkeypatch, capsys, value):
    monkeypatch.setenv("MODINV_MAX_DEGREE", value)
    assert cli.cli_main(["stable", "--prime", "3", "--group", "L:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MODINV_MAX_DEGREE must be a positive integer")


def test_cli_usage_error_exit2(capsys):
    assert cli.cli_main(["frobnicate"]) == 2
    assert cli.cli_main([]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stable", "--prime", "all-small", "--group", "L:1"], "--prime all-small is accepted by verify only"),
        (["gen", "--prime", "all-small", "--reflections", "1,1;0,1"], "--prime all-small"),
        (["classify", "--prime", "all-small", "--matrices", "1,1;0,1"], "--prime all-small"),
        (["invariants", "--prime", "all-small", "--group", "L:1", "--max-degree", "2"], "--prime all-small"),
        (["stable", "--prime", "x", "--group", "L:1"], "--prime expects a prime, got 'x'"),
        (["verify", "--prime", "x"], "--prime expects a prime, got 'x'"),
        (["stable", "--prime", "3", "--group", "U:3"], "--group expects U:r,s with positive integers"),
        (["stable", "--prime", "3", "--group", "U:1,2,2"], "--group expects U:r,s"),
        (["stable", "--prime", "3", "--group", "L:x"], "--group expects L:r with positive integers"),
        (["invariants", "--prime", "3", "--group", "L:0", "--max-degree", "2"], "--group expects L:r"),
    ],
)
def test_cli_malformed_option_names_it(capsys, argv, message):
    assert cli.cli_main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_stable_json_schema(capsys):
    code = cli.cli_main(["stable", "--prime", "3", "--group", "U:1,2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stabilization_index"] == 2
    assert payload["ideals"][0]["generators"] == ["x", "y^6"]
    assert payload["ideals"][1]["generators"] == ["x", "y^2"]
    assert payload["ideals"][0]["quotient_dims"] == [1, 1, 1, 1, 1, 1]


def test_cli_stable_accepts_generator_matrices(capsys):
    code = cli.cli_main(["stable", "--prime", "3", "--group", "gens:1,1;0,1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group_order"] == 3


def test_cli_gen_json(capsys):
    code = cli.cli_main(["gen", "--prime", "3", "--reflections", "1,1;0,2 1,0;0,2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regular_sequence"] is True
    assert [g["polynomial"] for g in payload["generators"]] == ["x", "y^2"]


def test_cli_invariants_json(capsys):
    code = cli.cli_main(["invariants", "--prime", "3", "--group", "L:1", "--max-degree", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    by_degree = {d["degree"]: d for d in payload["degrees"]}
    assert by_degree[4]["dimension"] == 1
    # the canonical (monic leading term) multiple of x*y^3 - x^3*y
    assert by_degree[4]["basis"] == ["x^3*y + 2*x*y^3"]
    assert by_degree[6]["dimension"] == 1


def test_cli_verify_json_deterministic(capsys):
    def run():
        code = cli.cli_main(
            ["verify", "--prime", "3", "--theorem", "lemabinomial", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload:
            entry["elapsed_ms"] = 0.0
        return json.dumps(payload, sort_keys=True)

    assert run() == run()


def test_cli_exit1_on_failure(monkeypatch, capsys):
    def failing_runner(p):
        rep = VerificationReport(prime=p, target="lemabinomial")
        rep.add(Check.boolean("forced", False))
        return rep

    spec = verify.THEOREMS["lemabinomial"]
    monkeypatch.setitem(
        verify.THEOREMS,
        "lemabinomial",
        type(spec)(spec.identifier, spec.description, failing_runner),
    )
    code = cli.cli_main(["verify", "--prime", "3", "--theorem", "lemabinomial"])
    assert code == 1


# -- mutation smoke tests: a one-coefficient perturbation must be caught ---------


def test_mutation_lemabinomial(monkeypatch):
    original = verify.binomial_sum_check
    monkeypatch.setattr(
        verify, "binomial_sum_check", lambda p, i, k: original(p, i, k) + 1
    )
    (rep,) = run_verification([3], ["lemabinomial"])
    assert rep.status == "fail"


def test_mutation_formules(monkeypatch):
    original = poly2.d1

    def bad_d1(p):
        return original(p) + poly2.Poly2.monomial(p, 1, p * p - p, 0)

    monkeypatch.setattr(poly2, "d1", bad_d1)
    (rep,) = run_verification([3], ["formules"])
    assert rep.status == "fail"


def _formules_with_generator(monkeypatch, perturb):
    # items 5 and 6 see delta^r only through its normal forms
    original = poly2.lex_normal_forms
    monkeypatch.setattr(poly2, "lex_normal_forms", lambda g, d: original(perturb(g), d))
    (rep,) = run_verification([3], ["formules"])
    return {c.name: c.status for c in rep.checks}


def test_mutation_formules_wrong_tail_term(monkeypatch):
    def doubled_tail(g):
        key = min(g.terms)  # the term of least x-degree, never the leading one
        return g + poly2.Poly2.monomial(g.p, g.terms[key], *key)

    statuses = _formules_with_generator(monkeypatch, doubled_tail)
    assert statuses["item5_monomial_reduction_mod_delta"] == "fail"


def test_mutation_formules_wrong_leading_term(monkeypatch):
    def raised_lead(g):
        p = g.p
        r = g.degree() // (p + 1)
        return g + poly2.Poly2.monomial(p, 1, r * p + 1, r - 1)

    statuses = _formules_with_generator(monkeypatch, raised_lead)
    assert statuses["item6_monomial_span_mod_delta_power"] == "fail"


def test_mutation_stableU(monkeypatch):
    original = stable_chain.invariant_slice

    def starved(fixing, d, modulo=None):
        if modulo is None and d == 1:
            return Subspace.zero(fixing.p, d + 1)
        return original(fixing, d, modulo)

    monkeypatch.setattr(stable_chain, "invariant_slice", starved)
    (rep,) = run_verification([3], ["stableU"])
    assert rep.status == "fail"


def test_mutation_genL(monkeypatch):
    original = demazure.delta_slice_rows

    def twisted(op, d, ks):
        ks = list(ks)
        rows = [list(r) for r in original(op, d, ks)]
        if d == 4 and 1 in ks:
            i = ks.index(1)
            rows[i][0] = (rows[i][0] + 1) % op.p
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(demazure, "delta_slice_rows", twisted)
    (rep,) = run_verification([3], ["genL"])
    assert rep.status == "fail"


def test_mutation_grups(monkeypatch):
    monkeypatch.setattr(grp2, "find_conjugator", lambda g, target: None)
    (rep,) = run_verification([3], ["grups"])
    assert rep.status == "fail"


def test_mutation_grups_wrong_witness(monkeypatch):
    # the tags stay right; only the witness is wrong (the identity)
    original = grp2.find_conjugator

    def identity_witness(g, target):
        t = original(g, target)
        return None if t is None else grp2.Mat2.identity(g.p)

    monkeypatch.setattr(grp2, "find_conjugator", identity_witness)
    (rep,) = run_verification([3], ["grups"])
    assert rep.status == "fail"


def test_grups_builds_no_list_of_all_invertible_matrices(monkeypatch):
    # the random conjugators are drawn entry by entry, not picked from
    # all |GL_2(F_p)| matrices
    def refuse(p):
        raise AssertionError("all_invertible must not be called")

    original = grp2.all_invertible
    for name, module in list(sys.modules.items()):
        if name.startswith("modinv") and getattr(module, "all_invertible", None) is original:
            monkeypatch.setattr(module, "all_invertible", refuse)
    (rep,) = run_verification([5], ["grups"])
    assert rep.status == "pass"


def test_cli_opt_in_larger_primes(capsys):
    code = cli.cli_main(["verify", "--prime", "11", "--theorem", "lemabinomial"])
    assert code == 0
    assert "lemabinomial" in capsys.readouterr().out


def test_cli_all_small_prime_set(capsys):
    code = cli.cli_main(
        ["verify", "--prime", "all-small", "--theorem", "lemabinomial", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["prime"] for entry in payload] == [2, 3, 5, 7]
    assert all(entry["status"] == "pass" for entry in payload)


def test_cli_json_deterministic_with_seeded_sampling(capsys):
    # the classification target draws random conjugators; the seed pins them
    def run():
        code = cli.cli_main(["verify", "--prime", "2", "--theorem", "grups", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload:
            entry["elapsed_ms"] = 0.0
        return json.dumps(payload, sort_keys=True)

    assert run() == run()


def test_cli_gen_rejects_non_reflection():
    # [[0,1],[2,0]] has rank-2 displacement from the identity
    code = cli.cli_main(["gen", "--prime", "3", "--reflections", "0,1;2,0"])
    assert code == 2


def test_cli_classify_prime_to_p(capsys):
    code = cli.cli_main(["classify", "--prime", "3", "--matrices", "0,1;1,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "prime-to-p"
