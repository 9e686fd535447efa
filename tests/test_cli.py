import json

import pytest

from qlocal import affine, network
from qlocal.cli import build_parser, format_records, format_table, main


def test_lemma2_experiment_exits_zero(capsys):
    assert main(["--experiment", "lemma2"]) == 0
    out = capsys.readouterr().out
    assert "admissible" in out
    assert "512" in out


def test_records_format_is_json_lines(capsys):
    assert main(["--experiment", "affine-bound", "--format", "records"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["best_success"] == "7/8"
    assert record["ok"] is True


def test_report_file_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["--experiment", "relation-validity", "--d", "2",
            "--shots", "50", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"experiment")


def test_sweep_emits_one_row_per_value(capsys):
    assert main(["--experiment", "gamma-exact", "--d", "2,4",
                 "--format", "records"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(l)["d"] for l in lines] == [2, 4]


def test_k_copies_sweep(capsys):
    assert main(["--experiment", "k-copies", "--d", "4", "--k", "1,2",
                 "--format", "records"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["measured"] for r in rows] == ["7/8", "49/64"]


def test_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "lemma2", "--d", ","])
    assert exc.value.code == 2


def test_odd_d_is_usage_error(capsys):
    # a bad value anywhere in a sweep fails before any row runs
    for d, bad in (("0", 0), ("3", 3), ("2,3", 3)):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "gamma-exact", "--d", d])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"d must be an even integer >= 2, got {bad}" in captured.err
        assert captured.out == ""


# No run at the default caps is refused any more: relation-validity and
# subgraph-fidelity draw from generator laws at any d. A lowered cap makes
# gamma-exact at d=2, which enumerates its laws, a refused run: the cap lives
# with the affine law's enumeration, which Γ's supports and the protocol's
# branch laws both go through.
@pytest.mark.parametrize(
    "module,cap,value,message",
    [
        # a d=2 branch law has up to 2^5 outcomes
        (affine, "MAX_ENUMERATED_BITS", 4,
         "2^5 outcomes exceed the enumeration cap of 2^4"),
        # the three input nodes draw one bit each
        (network, "MAX_RANDOM_BITS", 2,
         "3 randomness bits exceed the enumeration budget of 2"),
    ],
    ids=["enumeration-cap", "randomness-budget"],
)
def test_simulation_error_is_usage_error(module, cap, value, message,
                                         monkeypatch, capsys):
    monkeypatch.setattr(module, cap, value)
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "gamma-exact", "--d", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--experiment", "relation-validity", "--d", "8", "--shots", "10"],
    ["--experiment", "subgraph-fidelity", "--d", "16", "--shots", "5"],
    # a law of 2^28 outcomes, and 69 node qubits, past a 62-bit key
    ["--experiment", "relation-validity", "--d", "10", "--shots", "10"],
    ["--experiment", "subgraph-fidelity", "--d", "22", "--shots", "2"],
])
def test_runs_holding_more_than_63_qubits(args, capsys):
    # each run holds more than 63 live qubits at once
    assert main(args + ["--format", "records"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_k_copies_beyond_the_dense_cap(capsys):
    # the stabilizer tableau gives the d=10 support with no dense state; its
    # 30 qubits are past the tests' 26-qubit dense reference
    assert main(["--experiment", "k-copies", "--d", "10",
                 "--format", "records"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["d"] == 10 and record["measured"] == "7/8"
    assert record["ok"] is True


def test_tv_adversary_beyond_the_gamma_cap(capsys):
    # the search reads Γ's point probabilities from the supports, so only
    # T <= d/4 bounds d
    assert main(["--experiment", "tv-adversary", "--d", "32", "--T", "8",
                 "--format", "records"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["d"], record["T"]) == (32, 8)
    assert record["ok"] is True


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["--experiment", "nope"])


def test_formatters_agree_on_columns():
    rows = [{"experiment": "x", "value": 1, "ok": True}]
    table = format_table(rows)
    header = table.splitlines()[0].split()
    assert header == ["experiment", "value", "ok"]
    record = json.loads(format_records(rows))
    assert record["ok"] is True


def test_parser_defaults_are_fixed():
    args = build_parser().parse_args(["--experiment", "lemma2"])
    assert args.seed == 1234
    assert args.format == "table"


def test_unwritable_report_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "lemma2", "--out", str(tmp_path / "no" / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write the report" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shots", ["0", "-2"])
@pytest.mark.parametrize("experiment", ["relation-validity",
                                        "subgraph-fidelity"])
def test_shots_below_one_is_usage_error(experiment, shots, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", experiment, "--d", "4", "--shots", shots])
    assert exc.value.code == 2
    assert "--shots: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["relation-validity",
                                        "subgraph-fidelity"])
def test_negative_seed_is_usage_error(experiment, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", experiment, "--d", "4", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
