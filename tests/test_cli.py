import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import edgebudget
from edgebudget.cli import EXIT_ERROR, EXIT_NO_WITNESS, EXIT_OK, build_parser, main
from edgebudget.util import round9


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


def test_witness_smooth_checks_c0_like_survey(capsys):
    for c0 in ("0", "-2", "0.3"):
        code, out, err = run(capsys, "witness-smooth", "--n", "100", "--c0", c0)
        assert code == EXIT_ERROR and "c0 must lie in (0, 1/4)" in err and out == "", c0
    # a valid c0 over an empty interval [1, 0]: no witness, as for f-exact and witness-bv
    code, out, _ = run(capsys, "witness-smooth", "--n", "3")
    assert code == EXIT_NO_WITNESS and json.loads(out)["witness"] is None
    code, out, err = run(capsys, "witness-smooth", "--n", "0")
    assert code == EXIT_ERROR and out == ""


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


def test_witness_smooth_at_1e18_verifies(capsys, tmp_path):
    n = 10**18 + 7
    code, out, err = run(capsys, "witness-smooth", "--n", str(n))
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["n"] == n and doc["strategy"] == "smooth"
    path = tmp_path / "smooth.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert (code, json.loads(out)) == (EXIT_OK, {"n": n, "valid": True})


def test_witness_smooth_refuses_n_beyond_64_bits(capsys):
    for n in (2**64, 10**40):
        code, out, err = run(capsys, "witness-smooth", "--n", str(n))
        assert (code, out) == (EXIT_ERROR, "") and f"n={n}" in err, n
    code, out, _ = run(capsys, "witness-smooth", "--n", str(2**64 - 1))
    assert code == EXIT_OK and json.loads(out)["n"] == 2**64 - 1


def test_witness_bv_refuses_n_from_2_65(capsys):
    for n in (2**65, 2**66):
        code, out, err = run(capsys, "witness-bv", "--n", str(n))
        assert (code, out) == (EXIT_ERROR, "") and f"n={n}" in err, n


def test_verify_rejects_corrupted_witness(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n":10000,"k":649,"p":11,"q":13,"r":2863,"score":37193}')
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_NO_WITNESS
    assert json.loads(out) == {"n": 10000, "valid": False}
    code, out, _ = run(capsys, "verify", "--input", str(path), "--format", "csv")
    assert (code, out) == (EXIT_NO_WITNESS, "n,valid\n10000,0\n")
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


def test_discrepancy_csv_row(capsys):
    # the record's computed floats: 9 significant digits, the JSON value a float
    code, out, _ = run(capsys, "discrepancy", "--z", "10", "--m", "3", "--format", "csv")
    assert (code, out) == (EXIT_OK, "m,worst_a,worst_y,sup_value,is_left_limit\n3,1,7,2.80685282,1\n")
    code, out, _ = run(capsys, "discrepancy", "--z", "10", "--m", "3")
    assert out == '{"m":3,"worst_a":1,"worst_y":7.0,"sup_value":2.80685282,"is_left_limit":true}\n'


def test_echoed_inputs_keep_their_bytes(capsys):
    # only computed floats are cut to 9 digits; an input prints as it was parsed
    code, out, _ = run(capsys, "psi", "--y", "123456789.5", "--m", "7", "--a", "3", "--format", "csv")
    assert code == EXIT_OK and out.splitlines()[1].startswith("123456789.5,7,3,")
    code, out, _ = run(capsys, "psi", "--y", "123456789.5", "--m", "7", "--a", "3")
    assert out.startswith('{"y":123456789.5,"m":7,"a":3,"psi":')


def test_bv_sum_extreme_b(capsys):
    # a non-finite B is rejected; Infinity or NaN would not be JSON
    for b in ("inf", "nan"):
        code, out, err = run(capsys, "bv-sum", "--z", "1000", "--B", b)
        assert code == EXIT_ERROR and "B must be" in err and out == "", b
    # (log z)**B overflows a double: the cutoff is below 1 and the sum empty
    code, out, _ = run(capsys, "bv-sum", "--z", "1000", "--B", "1e308")
    assert code == EXIT_OK
    assert out == '{"z":1000.0,"B":1e+308,"cutoff":0,"sum":0.0}\n'


def test_nan_range_is_rejected_by_name(capsys):
    cases = (
        (("bv-sum", "--z", "nan", "--B", "1"), "z >= 3"),
        (("discrepancy", "--z", "nan", "--m", "3"), "z must be at least 1"),
        (("psi", "--y", "nan", "--m", "3", "--a", "1"), "y must be positive"),
        (("discrepancy", "--z", "100", "--m", "10000000000"), "m must satisfy 1 <= m <= "),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR and message in err and out == "", argv


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
    code, out, _ = run(capsys, "survey", "--x", "200", "--preset", "corollary-2", "--c0", "0.1")
    assert code == EXIT_OK
    assert json.loads(out)["config"] == {"alpha": 0.677, "gamma": 0.5, "c0": 0.1, "eps": 0.05,
                                         "strategies": ["smooth"]}


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


def test_invalid_parameters_exit_1(capsys):
    code, _, err = run(capsys, "survey", "--x", "100", "--alpha", "3")
    assert code == EXIT_ERROR and "alpha" in err
    code, _, err = run(capsys, "psi", "--y", "10", "--m", "3", "--a", "7")
    assert code == EXIT_ERROR
    code, out, err = run(capsys, "survey", "--x", "100", "--strategies", "warp")
    assert (code, out) == (EXIT_ERROR, "") and "unknown strategy 'warp'" in err
    # a preset fixes alpha, gamma and the strategies: an explicit one is refused, not dropped
    for flag, value in (("--alpha", "0.5"), ("--gamma", "0.5"), ("--strategies", "smooth,bv")):
        code, out, err = run(capsys, "survey", "--x", "300", "--preset", "corollary-1", flag, value)
        assert (code, out) == (EXIT_ERROR, "") and flag in err and "--preset" in err, flag
    # bs-experiment checks its flags before sampling anything
    for argv, flag in (
        (("--trials", "-1"), "--trials"),
        (("--n-max", "0", "--size-a", "0"), "--n-max"),
        (("--n-max", "1"), "--n-max"),
        (("--size-a", "20", "--n-max", "10"), "--size-a"),
        (("--size-a", "0"), "--size-a"),
        (("--size-b", "10001"), "--size-b"),
    ):
        code, out, err = run(capsys, "bs-experiment", *argv)
        assert (code, out) == (EXIT_ERROR, "") and flag in err, argv


def run_capped(*argv):
    """The CLI in a child process under an address-space cap of 1.5 GB (the child alone)."""
    cap = 1_500_000 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(edgebudget.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "edgebudget.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120,
    )


def test_out_of_memory_is_one_error_line():
    # the 1.5e9 n of [x/2, x] at x = 3e9 need an 11 GiB column: nothing is touched
    proc = run_capped("survey", "--x", "3000000000")
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr.startswith("edgebudget: error: out of memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_discrepancy_at_the_largest_modulus_fits_in_memory():
    # m = 2**31 has 2**30 coprime classes, but only the few holding a jump get arrays
    m, z = 2**31, 100
    proc = run_capped("discrepancy", "--z", str(z), "--m", str(m))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    # oracle from psi: every class holding a jump is a prime power j <= z < m, and
    # each empty coprime class ends at z / phi(m), no higher than class 1 does;
    # phi(m) = 2**30, so every y / phi(m) is exact
    phi = edgebudget.euler_phi(m)
    best = None
    for a in range(1, z + 1, 2):  # the coprime classes, ascending
        candidates = []
        if edgebudget.mangoldt_weight(a) > 0:
            candidates += [(a - 0.5, a, True), (a, a, False)]
        candidates.append((z, z, False))
        for y, at, is_left in candidates:
            value = abs(edgebudget.psi(y, m, a) - at / phi)
            if best is None or value > best[0]:
                best = (value, a, float(at), is_left)
    value, a, y, is_left = best
    want = {"m": m, "worst_a": a, "worst_y": y, "sup_value": round9(value), "is_left_limit": is_left}
    assert json.loads(proc.stdout) == want
    assert want["worst_a"] == 97 and not is_left


def test_usage_errors_exit_1_not_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as info:
        main(["f-exact"])  # missing --n
    assert info.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as info:
        main(["survey", "--x", "300", "--threads", "2"])  # no such flag
    assert info.value.code == EXIT_ERROR


# Every subcommand in both formats at small inputs: (argv, exit code, stdout).
# The survey reports are long, so they are pinned by the sha256 of their bytes.
GOLDEN = [
    (("f-exact", "--n", "100", "--format", "json"), 0,
     '{"n":100,"value":1681,"witness":{"k":1,"p":41,"q":29,"r":59,"score":1681,"strategy":"exact"}}\n'),
    (("f-exact", "--n", "100", "--format", "csv"), 0,
     "n,strategy,k,p,q,r,score\n100,exact,1,41,29,59,1681\n"),
    (("witness-bv", "--n", "1000000", "--format", "json"), 0,
     '{"n":1000000,"k":43999,"p":17,"q":19,"r":252017,"score":4788323,"strategy":"bv"}\n'),
    (("witness-bv", "--n", "1000000", "--format", "csv"), 0,
     "n,strategy,k,p,q,r,score\n1000000,bv,43999,17,19,252017,4788323\n"),
    (("witness-smooth", "--n", "60000", "--format", "json"), 0,
     '{"n":60000,"k":19,"p":2999,"q":503,"r":3019,"score":1518557,"strategy":"smooth"}\n'),
    (("witness-smooth", "--n", "60000", "--format", "csv"), 0,
     "n,strategy,k,p,q,r,score\n60000,smooth,19,2999,503,3019,1518557\n"),
    (("survey", "--x", "300", "--strategies", "smooth,bv", "--format", "json"), 0,
     "sha256:2ffc1683056b6f376177d55b345eb27b2bf32b671777345e3ee7a179c22095f2"),
    (("survey", "--x", "300", "--strategies", "smooth,bv", "--format", "csv"), 0,
     "sha256:27a44ac237ea609edf642ded1bceb6c026c24d38a7a6a81a36f59cc63d0350a2"),
    (("survey", "--x", "20011", "--preset", "corollary-2", "--format", "json"), 0,
     "sha256:4fcd60d18ca854d8ec7b571018bcf00848766a6cd6ad54139fa184ee918055a7"),
    (("survey", "--x", "20011", "--preset", "corollary-2", "--format", "csv"), 0,
     "sha256:41d12d694327c5a37c130f7fad800310e88720362c052c999da9946bca9e9acf"),
    (("survey", "--x", "20011", "--strategies", "smooth,bv", "--format", "json"), 0,
     "sha256:06796a36847879dba91bb48c4e70139ffe2614be000ba83f6b79164e6de38887"),
    (("survey", "--x", "20011", "--strategies", "smooth,bv", "--format", "csv"), 0,
     "sha256:a5f4655bc1276f70533ca409b522206c3409595b43805993fb323430e01ca52f"),
    # 35001 rows: several blocks of the survey's text kernel; the second run
    # has 37 exceptional rows and 11287 bv rows
    (("survey", "--x", "70001", "--preset", "corollary-1", "--format", "json"), 0,
     "sha256:d0a90c466e2116e37ace8062d182a405939aab3f7ec3950dda5382490d5700d3"),
    (("survey", "--x", "70001", "--preset", "corollary-1", "--format", "csv"), 0,
     "sha256:c8107456c3497a8d22134530d634eb983d1112d10e8ea807d620336b79cfd965"),
    (("survey", "--x", "70001", "--strategies", "smooth,bv", "--c0", "0.24", "--gamma", "0.9",
      "--format", "json"), 0,
     "sha256:6f689bca90af8c72530830c95d2208f39027b9ab2896537223454184e5324ae7"),
    (("survey", "--x", "70001", "--strategies", "smooth,bv", "--c0", "0.24", "--gamma", "0.9",
      "--format", "csv"), 0,
     "sha256:ab5547d569aa0026879fb1bdb0510da5021ad22a1b044d77e11e60fd5c2b903a"),
    (("rset-density", "--z", "1000", "--alpha", "0.6", "--format", "json"), 0,
     '{"z":1000,"alpha":0.6,"count":62,"ratio":0.428280827}\n'),
    (("rset-density", "--z", "1000", "--alpha", "0.6", "--format", "csv"), 0,
     "z,alpha,count,ratio\n1000,0.6,62,0.428280827\n"),
    (("psi", "--y", "100", "--m", "10", "--a", "3", "--format", "json"), 0,
     '{"y":100.0,"m":10,"a":3,"psi":23.2398479}\n'),
    (("psi", "--y", "100", "--m", "10", "--a", "3", "--format", "csv"), 0,
     "y,m,a,psi\n100.0,10,3,23.2398479\n"),
    (("discrepancy", "--z", "1000", "--m", "7", "--format", "json"), 0,
     '{"m":7,"worst_a":6,"worst_y":769.0,"sup_value":16.4495739,"is_left_limit":true}\n'),
    (("discrepancy", "--z", "1000", "--m", "7", "--format", "csv"), 0,
     "m,worst_a,worst_y,sup_value,is_left_limit\n7,6,769,16.4495739,1\n"),
    (("bv-sum", "--z", "1000", "--B", "1", "--format", "json"), 0,
     '{"z":1000.0,"B":1.0,"cutoff":4,"sum":74.8620713}\n'),
    (("bv-sum", "--z", "1000", "--B", "1", "--format", "csv"), 0,
     "z,B,cutoff,sum\n1000.0,1.0,4,74.8620713\n"),
    (("bs-experiment", "--n-max", "500", "--size-a", "20", "--size-b", "20", "--trials", "2",
      "--format", "json"), 0,
     '{"trials":[{"trial":0,"seed":0,"size_a":20,"size_b":20,"n_max":500,"max_p":419,"a":495,'
     '"b":76,"threshold":0.160911192,"meets_threshold":true},{"trial":1,"seed":0,"size_a":20,'
     '"size_b":20,"n_max":500,"max_p":487,"a":495,"b":8,"threshold":0.160911192,'
     '"meets_threshold":true}]}\n'),
    (("bs-experiment", "--n-max", "500", "--size-a", "20", "--size-b", "20", "--trials", "2",
      "--format", "csv"), 0,
     "trial,seed,size_a,size_b,n_max,max_p,a,b,threshold,meets_threshold\n"
     "0,0,20,20,500,419,495,76,0.160911192,1\n1,0,20,20,500,487,495,8,0.160911192,1\n"),
    # the order and repeats of --strategies names do not change a byte
    (("survey", "--x", "300", "--strategies", "bv,smooth", "--format", "json"), 0,
     "sha256:2ffc1683056b6f376177d55b345eb27b2bf32b671777345e3ee7a179c22095f2"),
    (("survey", "--x", "300", "--strategies", "bv,smooth", "--format", "csv"), 0,
     "sha256:27a44ac237ea609edf642ded1bceb6c026c24d38a7a6a81a36f59cc63d0350a2"),
    (("survey", "--x", "300", "--strategies", "smooth,smooth,bv", "--format", "json"), 0,
     "sha256:2ffc1683056b6f376177d55b345eb27b2bf32b671777345e3ee7a179c22095f2"),
    (("survey", "--x", "300", "--strategies", "smooth,smooth,bv", "--format", "csv"), 0,
     "sha256:27a44ac237ea609edf642ded1bceb6c026c24d38a7a6a81a36f59cc63d0350a2"),
    (("survey", "--x", "300", "--strategies", "bv", "--format", "json"), 0,
     "sha256:3145f61b9f6b49959f0f5727787047fd5b8149fb82414474b93a7c6de98ed8b1"),
    (("survey", "--x", "300", "--strategies", "bv", "--format", "csv"), 0,
     "sha256:caccd6f61aa32bcce382333869d13f021675527e267fd9dde895de0806975b37"),
]


def test_golden_pins_every_subcommand_in_both_formats():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    pinned = {(argv[0], argv[argv.index("--format") + 1]) for argv, _, _ in GOLDEN}
    # verify reads a certificate, so test_golden_bytes pins it on GOLDEN's witness-bv output
    for command in set(action.choices) - {"verify"}:
        assert {(command, "json"), (command, "csv")} <= pinned, command


def test_every_survey_config_field_is_a_survey_flag():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in action.choices["survey"]._actions} - {"help"}
    fields = {f.name for f in dataclasses.fields(edgebudget.SurveyConfig)}
    assert fields == dests - {"x", "preset", "format", "output"}


def test_golden_bytes(capsys, tmp_path):
    for argv, want_code, want in GOLDEN:
        code, out, _ = run(capsys, *argv)
        if want.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert (code, out) == (want_code, want), argv
    path = tmp_path / "bv.json"
    path.write_text(GOLDEN[2][2])  # the witness-bv JSON certificate
    for fmt, want in (("json", '{"n":1000000,"valid":true}\n'), ("csv", "n,valid\n1000000,1\n")):
        code, out, _ = run(capsys, "verify", "--input", str(path), "--format", fmt)
        assert (code, out) == (EXIT_OK, want), fmt
