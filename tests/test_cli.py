import json

import pytest

from edgebudget.cli import EXIT_ERROR, EXIT_NO_WITNESS, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_f_exact_json(capsys):
    code, out, _ = run(capsys, "f-exact", "--n", "10", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 10 and doc["value"] == 10
    assert {k: doc["witness"][k] for k in ("k", "p", "q", "r")} == {"k": 1, "p": 5, "q": 2, "r": 5}


def test_f_exact_no_witness_exits_2(capsys):
    code, out, _ = run(capsys, "f-exact", "--n", "4")
    assert code == EXIT_NO_WITNESS
    assert json.loads(out) == {"n": 4, "value": 0, "witness": None}


def test_rset_density_example(capsys):
    code, out, _ = run(capsys, "rset-density", "--z", "25", "--alpha", "0.5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["ratio"] == pytest.approx(0.515020132)


def test_witness_smooth_empty_rset_exits_2(capsys):
    code, out, _ = run(
        capsys, "witness-smooth", "--n", "50", "--alpha", "0.99", "--c0", "0.05", "--gamma", "0.5"
    )
    assert code == EXIT_NO_WITNESS
    assert json.loads(out)["witness"] is None


def test_witness_bv_json_and_verify_round_trip(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "witness-bv", "--n", "10000", "--eps", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"n": 10000, "k": 649, "p": 11, "q": 13, "r": 2861, "score": 37193, "strategy": "bv"}

    path = tmp_path / "witness.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 10000, "valid": True}


def test_witness_smooth_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "witness-smooth", "--n", "100", "--alpha", "0.5",
                       "--gamma", "0.5", "--c0", "0.05")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["k"], doc["p"], doc["q"], doc["r"]) == (3, 31, 3, 7)
    path = tmp_path / "smooth.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_OK and json.loads(out)["valid"] is True


def test_verify_rejects_corrupted_witness(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n":10000,"k":649,"p":11,"q":13,"r":2863,"score":37193}')
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_NO_WITNESS
    assert json.loads(out) == {"n": 10000, "valid": False}
    # p beyond the 2**64 primality range cannot be certified
    path.write_text(json.dumps({"n": 2**64 + 16, "k": 1, "p": 2**64 + 13, "q": 2, "r": 3, "score": 6}))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_NO_WITNESS
    assert json.loads(out) == {"n": 2**64 + 16, "valid": False}


def test_verify_accepts_nested_f_exact_document(capsys, tmp_path):
    code, out, _ = run(capsys, "f-exact", "--n", "10")
    path = tmp_path / "nested.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_OK and json.loads(out)["valid"] is True


def test_verify_malformed_input_exits_1(capsys, tmp_path):
    path = tmp_path / "junk.json"
    for text in (
        '{"n": 3}',
        '{"n":10,"k":1,"p":5.5,"q":2,"r":5}',  # only JSON integers certify
        '{"n":10,"k":1,"p":"5","q":2,"r":5}',
        '{"n":10,"k":true,"p":5,"q":2,"r":5}',
    ):
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == EXIT_ERROR and "error" in err and out == "", text


def test_witness_csv_format(capsys):
    code, out, _ = run(capsys, "witness-bv", "--n", "10000", "--eps", "0", "--format", "csv")
    assert code == EXIT_OK
    assert out == "n,strategy,k,p,q,r,score\n10000,bv,649,11,13,2861,37193\n"


def test_psi_and_discrepancy_and_bv_sum(capsys):
    code, out, _ = run(capsys, "psi", "--y", "10", "--m", "3", "--a", "1")
    assert code == EXIT_OK and json.loads(out)["psi"] == pytest.approx(2.63905733)

    code, out, _ = run(capsys, "discrepancy", "--z", "10", "--m", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out == "m,worst_a,worst_y,sup_value,is_left_limit\n3,1,7,2.80685282,1\n"

    code, out, _ = run(capsys, "bv-sum", "--z", "10", "--B", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cutoff"] == 1 and doc["sum"] == pytest.approx(2.90565544)


def test_survey_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "survey", "--x", "100", "--alpha", "0.5", "--gamma", "0.5",
        "--output", str(out_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    row = next(r for r in doc["records"] if r["n"] == 100)
    assert (row["k"], row["p"], row["q"], row["r"]) == (3, 31, 3, 7)

    csv_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "survey", "--x", "100", "--alpha", "0.5", "--gamma", "0.5",
        "--format", "csv", "--output", str(csv_path),
    )
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "n,strategy,k,p,q,r,score,beta,exceptional"


def test_survey_preset(capsys):
    code, out, _ = run(capsys, "survey", "--x", "200", "--preset", "corollary-2")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["gamma"] == 0.5


def test_bs_experiment_is_seed_reproducible(capsys):
    args = ("bs-experiment", "--n-max", "1000", "--size-a", "40", "--size-b", "40",
            "--trials", "3", "--seed", "11")
    code, first, _ = run(capsys, *args)
    assert code == EXIT_OK
    code, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert len(doc["trials"]) == 3
    assert all(row["meets_threshold"] for row in doc["trials"])


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "survey", "--x", "300")
    _, second, _ = run(capsys, "survey", "--x", "300")
    assert first == second


def test_thread_hint_never_changes_emitted_values(capsys):
    _, one, _ = run(capsys, "survey", "--x", "300", "--threads", "1")
    _, two, _ = run(capsys, "survey", "--x", "300", "--threads", "2")
    assert one == two
    _, one, _ = run(capsys, "bv-sum", "--z", "400", "--B", "1", "--threads", "1")
    _, two, _ = run(capsys, "bv-sum", "--z", "400", "--B", "1", "--threads", "2")
    assert one == two


def test_invalid_parameters_exit_1(capsys):
    code, _, err = run(capsys, "survey", "--x", "100", "--alpha", "3")
    assert code == EXIT_ERROR and "alpha" in err
    code, _, err = run(capsys, "psi", "--y", "10", "--m", "3", "--a", "7")
    assert code == EXIT_ERROR
    code, _, err = run(capsys, "survey", "--x", "100", "--strategies", "warp")
    assert code == EXIT_ERROR


def test_usage_errors_exit_1_not_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as info:
        main(["f-exact"])  # missing --n
    assert info.value.code == EXIT_ERROR
