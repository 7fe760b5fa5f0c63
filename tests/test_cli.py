import json
import time

import pytest

from caphs import cli
from caphs.cli import CSV_COLUMNS, main
from caphs.core import parse_instance, serialize_solution, Solution, Assignment
from caphs.reductions import parse_mdk, serialize_csp, serialize_mdk, MdkInstance

from _oracles import random_three_regular_csp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance_file(tmp_path, capsys, seed=7, weighted=True, n=6, m=8, d=3):
    args = ["gen", "--n", str(n), "--m", str(m), "--d", str(d), "--seed", str(seed)]
    if weighted:
        args.append("--weighted")
    code, out, _ = run(capsys, *args)
    assert code == 0
    path = tmp_path / f"inst{seed}.json"
    path.write_text(out)
    return path


def test_gen_writes_valid_instance(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    inst = parse_instance(path.read_text())
    assert inst.n == 6 and inst.m == 8
    again = gen_instance_file(tmp_path, capsys, seed=7)
    assert again.read_text() == path.read_text()


def test_solve_exact_and_check_round_trip(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(capsys, "solve-exact", str(path), "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["size"] == 4
    assert doc["copies"] == {"1": 1, "4": 1, "5": 2}
    assert doc["assignment"] == {"0": 4, "1": 5, "2": 5, "3": 1, "4": 1, "5": 1, "6": 5, "7": 5}

    sol_path = tmp_path / "sol.json"
    sol = Solution({int(x): c for x, c in doc["copies"].items()})
    asg = Assignment({int(j): x for j, x in doc["assignment"].items()})
    sol_path.write_text(serialize_solution(sol, asg))
    code, out, _ = run(capsys, "check", str(path), str(sol_path))
    assert code == 0
    checked = json.loads(out)
    assert checked["feasible"] is True
    assert checked["stored_assignment_valid"] is True


def test_solve_exact_reports_absence(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(capsys, "solve-exact", str(path), "--k", "2")
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_solve_exact_cost_does_not_grow_with_k_beyond_the_multiplicities(tmp_path, capsys):
    # One element of capacity 0 and multiplicity 1: no vector buys more than
    # one copy, so a huge k searches what k = 1 searches.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "format": 1, "d": 1,
        "elements": [{"id": 0, "cap": 0, "mult": 1, "weight": 1}],
        "family": [[0]],
    }))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "solve-exact", str(path), "--k", "4000000")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_check_rejects_infeasible_and_mult_violation(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(serialize_solution(Solution({0: 1})))
    code, out, _ = run(capsys, "check", str(path), str(sol_path))
    assert code == 1
    assert json.loads(out)["feasible"] is False
    # element 2 of the seed-7 instance has mult 1
    sol_path.write_text(serialize_solution(Solution({2: 2})))
    code, out, _ = run(capsys, "check", str(path), str(sol_path))
    assert code == 1
    assert "reason" in json.loads(out)


def test_check_rejects_a_stored_assignment_to_a_non_member(tmp_path, capsys):
    # Both elements are bought and each set is charged once, so only
    # membership fails: set 0 = {0} is charged to element 1.
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "format": 1, "d": 1,
        "elements": [{"id": 0, "cap": 1, "mult": 1, "weight": 1},
                     {"id": 1, "cap": 1, "mult": 1, "weight": 1}],
        "family": [[0], [1]],
    }))
    sol_path = tmp_path / "swapped.json"
    sol_path.write_text(serialize_solution(Solution({0: 1, 1: 1}), Assignment({0: 1, 1: 0})))
    code, out, _ = run(capsys, "check", str(path), str(sol_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["stored_assignment_valid"] is False
    assert '"stored_assignment_valid": false' in out


def test_solve_approx_outputs_bounds(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(capsys, "solve-approx", str(path), "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["size_bound"] == 6
    assert doc["size"] <= doc["size_bound"]
    assert doc["ratio_bound"] == pytest.approx(4 / 3)


def test_solve_approx_weighted_and_overrides(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(
        capsys,
        "solve-approx", str(path), "--k", "4",
        "--epsilon", "1/2",
        "--override-const", "max_coloring_trials=5000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["ratio_bound"] == pytest.approx(2.5)
    code, out, _ = run(
        capsys,
        "solve-approx", str(path), "--k", "4",
        "--override-const", "speed=11",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_enumerate_budget_stops_a_bucket_base_near_one(tmp_path, capsys):
    # The gamma rungs for base 1.00001 are every integer up to each class
    # size, listed at once, so the small budget runs out within a second.
    path = gen_instance_file(tmp_path, capsys, seed=0, weighted=False, m=6)
    t0 = time.perf_counter()
    code, out, _ = run(
        capsys,
        "solve-approx", str(path), "--k", "2", "--mode", "enumerate", "--budget", "50",
        "--override-const", "bucket_base=1.00001",
    )
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("mode", ["guided", "enumerate"])
def test_solve_approx_rejects_zero_coloring_trials(tmp_path, capsys, mode):
    # k=2 has no solution on this instance; the bad constant is still an error.
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(
        capsys,
        "solve-approx", str(path), "--k", "2", "--mode", mode,
        "--override-const", "max_coloring_trials=0",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_certify_row_shape(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, _ = run(capsys, "certify", str(path), "--k", "4")
    assert code == 0
    fields = out.strip().split(",")
    assert len(fields) == len(CSV_COLUMNS.split(","))
    assert fields[0] == str(path)
    assert fields[1] == "4"
    assert float(fields[7]) <= 4 / 3 + 1e-9


def test_certify_and_bench_solve_exactly_once_per_row(tmp_path, capsys, monkeypatch):
    # Guided mode takes the row's own exact optimum as its oracle.
    from caphs import approx, cli

    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = cli.solve_exact
    monkeypatch.setattr(cli, "solve_exact", counting)
    monkeypatch.setattr(approx, "solve_exact", counting)
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, _, _ = run(capsys, "certify", str(path), "--k", "4")
    assert (code, len(calls)) == (0, 1)
    calls.clear()
    code, out, _ = run(capsys, "bench", "--count", "3")
    rows = out.splitlines()[1:]
    # One call per corpus seed tried, including those that yield no row.
    attempts = int(rows[-1].split(",")[0].removeprefix("corpus:")) + 1
    assert (code, len(rows)) == (0, 3)
    assert len(calls) == attempts and attempts > len(rows)


def test_certify_set_free_instance_prints_the_all_zero_row(tmp_path, capsys):
    path = tmp_path / "setfree.json"
    path.write_text(json.dumps({
        "format": 1, "d": 1, "elements": [{"id": 0, "cap": 1, "mult": 1, "weight": 1}],
        "family": [],
    }))
    for k, bound in (("0", 0), ("2", 3)):
        code, out, _ = run(capsys, "certify", str(path), "--k", k)
        assert code == 0, k
        assert out == f"{path},{k},0,0,0,0,0,1.000000,1.000000,{bound}\n"


def test_certify_infeasible_exits_one(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, seed=7)
    code, out, err = run(capsys, "certify", str(path), "--k", "2")
    assert code == 1
    assert json.loads(out) == {"found": False}
    assert "no solution" in err


def test_reduce_csp_mdk(tmp_path, capsys):
    csp = random_three_regular_csp(2, 2, seed=1, satisfiable=True)
    csp_path = tmp_path / "csp.json"
    csp_path.write_text(serialize_csp(csp))
    code, out, err = run(capsys, "reduce", "csp-mdk", str(csp_path))
    assert code == 0
    mdk = parse_mdk(out)
    assert mdk.k == 5
    assert "k=5" in err and "vectors=" in err

    mdk_path = tmp_path / "mdk.json"
    mdk_path.write_text(out)
    code, out, err = run(capsys, "reduce", "mdk-cvc", str(mdk_path))
    assert code == 0
    inst = parse_instance(out)
    assert inst.d == 2
    assert f"k_cvc={mdk.k + mdk.d}" in err


def test_reduce_wcvc_prices_twins(tmp_path, capsys):
    mdk = MdkInstance(d=2, k=2, target=(1, 2), vectors=((1, 0), (1, 1), (0, 2)))
    mdk_path = tmp_path / "mdk.json"
    mdk_path.write_text(serialize_mdk(mdk))
    code, out, err = run(capsys, "reduce", "mdk-wcvc", str(mdk_path))
    assert code == 0
    inst = parse_instance(out)
    assert max(e.weight for e in inst.elements) == inst.n * inst.m + 1
    assert "W=2" in err


def test_reduce_covering(tmp_path, capsys):
    from caphs.reductions import Constraint, CspInstance

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    cons = tuple(Constraint(u, v, ((1, 1), (2, 2))) for u, v in edges)
    csp_path = tmp_path / "csp5.json"
    csp_path.write_text(serialize_csp(CspInstance(k=5, n=2, constraints=cons)))
    code, out, err = run(capsys, "reduce", "csp-mdk-cov", str(csp_path))
    assert code == 0
    mdk = parse_mdk(out)
    assert mdk.k == 10  # ceil(5 / alpha) sets at alpha = 1/2
    assert "k_star=10" in err


def test_reduce_covering_reports_absence(tmp_path, capsys):
    # With no trials no family is sampled, so the reduction finds nothing.
    csp_path = tmp_path / "csp.json"
    csp_path.write_text(serialize_csp(random_three_regular_csp(4, 2, seed=1, satisfiable=True)))
    code, out, err = run(capsys, "reduce", "csp-mdk-cov", str(csp_path), "--trials", "0")
    assert code == 1
    assert json.loads(out) == {"found": False}
    assert "no covering family" in err


@pytest.mark.parametrize(
    "option, code, kind",
    [
        (("--alpha", "1e-400"), 2, "ParameterViolation"),
        (("--beta", "1e-400"), 2, "ParameterViolation"),
        (("--beta", "0.99999999999999999999"), 0, None),
    ],
)
def test_reduce_covering_takes_fractions_a_float_cannot_hold(tmp_path, capsys, option, code, kind):
    # The parameter gate is computed in log space, so alpha or beta that a
    # float rounds to 0 or 1 ends in a gate verdict, not ZeroDivisionError.
    csp_path = tmp_path / "csp.json"
    csp_path.write_text(serialize_csp(random_three_regular_csp(4, 2, seed=1, satisfiable=True)))
    got, out, _ = run(capsys, "reduce", "csp-mdk-cov", str(csp_path), *option)
    assert got == code
    if kind is None:
        assert parse_mdk(out).k == 8
    else:
        assert json.loads(out)["error"]["type"] == kind


def test_reduce_covering_refuses_an_unverifiable_family_before_drawing(capsys, tmp_path):
    # At alpha 1/1000000 a family of 4 000 000 sets has more subfamilies of
    # size 4 than the verifier's budget, so no family is drawn at all.
    csp_path = tmp_path / "k4.json"
    cons = [{"u": u, "v": v, "allowed": [[1, 1], [2, 2]]} for u in range(4) for v in range(u + 1, 4)]
    csp_path.write_text(json.dumps({"format": 1, "k": 4, "n": 2, "constraints": cons}))
    options = ("--beta", "999999999/1000000000", "--r", "4", "--alpha", "1/1000000")
    start = time.perf_counter()
    code, out, _ = run(capsys, "reduce", "csp-mdk-cov", str(csp_path), *options)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {"error": {
        "type": "BudgetExceeded",
        "message": "10666650666673999999000000 subfamilies of size 4 exceed budget 1000000",
    }}


def test_bench_reports_a_shortfall(capsys, monkeypatch):
    # When no corpus instance yields a row, bench prints the header alone.
    monkeypatch.setattr(cli, "_certify_row", lambda *args: None)
    code, out, err = run(capsys, "bench", "--count", "2")
    assert code == 1
    assert out == CSV_COLUMNS + "\n"
    assert "only 0 of 2 rows produced" in err


def test_bench_produces_csv(capsys):
    code, out, err = run(capsys, "bench", "--count", "3", "--kmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.startswith("corpus:")
    code2, out2, _ = run(capsys, "bench", "--count", "3", "--kmax", "3")
    assert out2 == out  # byte-identical rerun


def test_errors_surface_as_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, _ = run(capsys, "check", str(bad), str(bad))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "MalformedInput"
    code, out, _ = run(capsys, "solve-exact", str(tmp_path / "missing.json"), "--k", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"
    # Nesting too deep for the decoder is malformed input, not a crash.
    bad.write_text("[" * 100_000)
    code, out, _ = run(capsys, "check", str(bad), str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"
    bad.write_text(json.dumps({"format": 1, "d": True, "k": 1, "target": [1], "vectors": [[1]]}))
    code, out, _ = run(capsys, "reduce", "mdk-cvc", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"
    # A solution file whose keys are not canonical ids, or repeat one, is
    # ambiguous: check refuses it instead of picking one reading.
    inst = gen_instance_file(tmp_path, capsys, seed=7)
    for text in (
        '{"copies": {"1": 1, "01": 1}}',
        '{"copies": {" 3 ": 1}}',
        '{"copies": {"1_0": 1}}',
        '{"copies": {"1": 1, "1": 2}}',
        '{"copies": {"1": 1}, "assignment": {"00": 1}}',
    ):
        bad.write_text(text)
        code, out, _ = run(capsys, "check", str(inst), str(bad))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "MalformedInput"
    # A negative k is a usage error in every subcommand.
    for cmd in ("solve-exact", "certify"):
        code, out, _ = run(capsys, cmd, str(inst), "--k", "-1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"
    # So are arguments that do not parse: a missing or malformed --k, an
    # unknown subcommand, no subcommand at all.
    for argv in (
        ("solve-exact", str(inst)),
        ("solve-approx", str(inst), "--k", "x"),
        ("frobnicate",),
        (),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert "usage:" in err
    # A fraction with a zero denominator is bad input, not a crash.
    for argv in (
        ("solve-approx", str(inst), "--k", "2", "--epsilon", "1/0"),
        ("reduce", "csp-mdk-cov", str(inst), "--alpha", "1/0"),
        ("reduce", "csp-mdk-cov", str(inst), "--beta", "0/0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert "usage:" in err
    for override in ("rho=1/0", "bucket_base=1/0"):
        code, out, _ = run(capsys, "solve-approx", str(inst), "--k", "2", "--override-const", override)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"
    # epsilon 0 is refused, not read as "no epsilon".
    code, out, _ = run(capsys, "solve-approx", str(inst), "--k", "2", "--epsilon", "0")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": "epsilon must be positive"}
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "solve-approx" in capsys.readouterr().out


def test_solve_approx_refuses_an_epsilon_past_the_float_range(tmp_path, capsys, monkeypatch):
    # ratio_bound prints 2 + epsilon as a float, so an epsilon a float cannot
    # hold is an error, found before any solving.
    path = gen_instance_file(tmp_path, capsys, seed=7)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_approx ran")

    monkeypatch.setattr("caphs.cli.solve_approx", no_solve)
    code, out, _ = run(capsys, "solve-approx", str(path), "--k", "2", "--epsilon", "1e400")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError",
        "message": "epsilon is too large: 2 + epsilon must fit in a float",
    }


def test_enumerate_survives_a_trial_count_past_the_float_range(tmp_path, capsys, monkeypatch):
    # default_trials(n, k) overflows a float at k = 720.  One element with
    # multiplicity one has one clone, and every size above 1 would leave a
    # part empty, so only size 1 draws colorings, whatever k.
    from caphs import approx

    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = approx.random_colorings
    monkeypatch.setattr(approx, "random_colorings", counting)
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "format": 1, "d": 1, "elements": [{"id": 0, "cap": 0, "mult": 1, "weight": 1}],
        "family": [[0]],
    }))
    for k, extra in (("720", ("--override-const", "max_coloring_trials=1")), ("30", ())):
        calls.clear()
        code, out, _ = run(capsys, "solve-approx", str(path), "--mode", "enumerate", "--k", k, *extra)
        assert code == 1
        assert json.loads(out) == {"found": False}
        assert len(calls) == 1


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    path = gen_instance_file(tmp_path, capsys, seed=7)
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    code, out, _ = run(capsys, "solve-exact", "-", "--k", "4")
    assert code == 0
    assert json.loads(out)["found"] is True


@pytest.mark.parametrize(
    "elements", [[{"id": 0, "cap": 1, "mult": 1, "weight": 1}], []], ids=["one-element", "empty"]
)
def test_solve_approx_buys_nothing_when_there_are_no_sets(tmp_path, capsys, elements):
    path = tmp_path / "setfree.json"
    path.write_text(json.dumps({"format": 1, "d": 1, "elements": elements, "family": []}))
    for mode in ("guided", "enumerate"):
        code, out, _ = run(capsys, "solve-approx", str(path), "--mode", mode, "--k", "1")
        assert code == 0, mode
        doc = json.loads(out)
        assert (doc["found"], doc["size"], doc["copies"]) == (True, 0, {}), mode


def test_solve_approx_at_k_zero(tmp_path, capsys):
    setfree = tmp_path / "setfree.json"
    setfree.write_text(json.dumps({
        "format": 1, "d": 1, "elements": [{"id": 0, "cap": 1, "mult": 1, "weight": 1}],
        "family": [],
    }))
    with_sets = gen_instance_file(tmp_path, capsys, seed=7)
    for mode in ("guided", "enumerate"):
        code, out, _ = run(capsys, "solve-approx", str(setfree), "--mode", mode, "--k", "0")
        assert code == 0, mode
        doc = json.loads(out)
        assert (doc["size"], doc["size_bound"], doc["copies"]) == (0, 0, {}), mode
        code, out, _ = run(capsys, "solve-approx", str(with_sets), "--mode", mode, "--k", "0")
        assert (code, json.loads(out)) == (1, {"found": False}), mode
    # The other config fields are still validated at k = 0.
    code, out, _ = run(capsys, "solve-approx", str(setfree), "--budget", "-1", "--k", "0")
    assert code == 2
    assert json.loads(out)["error"]["message"] == "budgets must be nonnegative"


def test_closed_stdout_exits_two_without_a_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import caphs

    env = {**os.environ, "PYTHONPATH": str(Path(caphs.__file__).parent.parent)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "caphs.cli", "gen", "--n", "8", "--m", "8", "--d", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # before the interpreter has started, let alone written
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err
