"""Harness and CLI: plans, record streams, budgets, aggregation, exit codes."""

import csv
import json
import subprocess
import sys

import pytest

from treecv.cli import main
from treecv.harness import (
    ExperimentPlan,
    aggregate_records,
    bench_rows,
    iter_run_records,
    make_synth_dataset,
    parse_synth_spec,
    render_pivot,
    speedup_summary,
    stability_gap,
    stability_rows,
    make_learner_factory,
)
from treecv import (
    SQUARED,
    ZERO_ONE,
    Dataset,
    get_loss,
    synth_classification,
    synth_regression,
)


def small_plan(**overrides):
    base = dict(
        learner="mean", loss="squared", k_values=(2, 5),
        schedulers=("tree", "standard"), orderings=("fixed",),
        repetitions=3, base_seed=7,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# Synth specs


def test_parse_synth_spec():
    kind, params = parse_synth_spec("classification:n=100,d=5,noise=0.2")
    assert kind == "classification"
    assert params == {"n": 100, "d": 5, "noise": 0.2}
    assert isinstance(params["n"], int)
    assert parse_synth_spec("blobs") == ("blobs", {})
    with pytest.raises(ValueError):
        parse_synth_spec("mixture:n=10")
    with pytest.raises(ValueError):
        parse_synth_spec("blobs:n10")


def test_make_synth_dataset_is_pinned_by_spec_string():
    a = make_synth_dataset("regression:n=50,d=3,seed=4")
    b = make_synth_dataset("regression:n=50,d=3,seed=4")
    c = make_synth_dataset("regression:n=50,d=3,seed=5")
    assert a == b and a != c
    assert make_synth_dataset("regression:n=50,d=3", n_override=20).n == 20


# ---------------------------------------------------------------------------
# Plans and record streams


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(learner="forest").validate()
    with pytest.raises(ValueError):
        small_plan(k_values=(1,)).validate()
    with pytest.raises(ValueError):
        small_plan(schedulers=("grid",)).validate()
    with pytest.raises(ValueError):
        small_plan(repetitions=0).validate()
    with pytest.raises(ValueError, match="at most 64"):
        small_plan(threads=65).validate()


def test_run_records_shape_and_scheduler_agreement():
    dataset = synth_regression(40, 3, noise=0.2, seed=1)
    records = list(iter_run_records(small_plan(), dataset))
    assert len(records) == 12  # 2 k values x 2 schedulers x 3 reps
    assert [r["row_id"] for r in records] == list(range(1, 13))
    assert all(r["status"] == "ok" for r in records)
    # the mean predictor is order-insensitive: tree == standard per (k, rep)
    by_cell = {(r["k"], r["scheduler"], r["rep"]): r["estimate"] for r in records}
    for k in (2, 5):
        for rep in range(3):
            assert by_cell[(k, "tree", rep)] == by_cell[(k, "standard", rep)]


def test_records_are_deterministic_modulo_timing():
    dataset = synth_classification(30, 3, margin=0.2, noise=0.1, seed=2)
    plan = small_plan(learner="pegasos", loss="zeroone", orderings=("fixed", "randomized"))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
    a = strip(iter_run_records(plan, dataset))
    b = strip(iter_run_records(plan, dataset))
    assert a == b


def test_loocv_rows_and_standard_budget_exceeded():
    dataset = synth_regression(24, 2, noise=0.2, seed=3)
    plan = small_plan(k_values=("n",), repetitions=1, update_budget=100)
    records = list(iter_run_records(plan, dataset))
    assert [r["k"] for r in records] == [24, 24]
    tree, standard = records
    assert tree["scheduler"] == "tree" and tree["status"] == "ok"
    # standard LOOCV would need 24*23 = 552 updates, over the budget
    assert standard["scheduler"] == "standard"
    assert standard["status"] == "budget-exceeded"


def test_failed_run_records_error_and_continues():
    dataset = synth_regression(10, 2, noise=0.2, seed=4)
    plan = small_plan(k_values=(50, 2), schedulers=("tree",), repetitions=1)
    records = list(iter_run_records(plan, dataset))
    assert records[0]["status"] == "error"
    assert "fold count" in records[0]["error"]
    assert records[1]["status"] == "ok"


@pytest.mark.parametrize("learner,loss", [("pegasos", "zeroone"), ("pegasos", "squared"),
                                          ("mean", "zeroone")])
def test_runs_reject_labels_outside_plus_minus_one(learner, loss):
    ones = synth_classification(20, 2, margin=0.2, noise=0.1, seed=8)
    zero_one = Dataset(ones.x, (ones.y + 1.0) / 2.0)
    unlabeled = Dataset(ones.x)
    plan = small_plan(learner=learner, loss=loss, k_values=(2,))
    for dataset in (zero_one, unlabeled):
        with pytest.raises(ValueError, match="--binarize-label"):
            next(iter_run_records(plan, dataset))
        with pytest.raises(ValueError, match="--binarize-label"):
            next(bench_rows(plan, dataset, [20]))
    assert all(r["status"] == "ok" for r in iter_run_records(plan, ones))


def test_verify_flag_replays_tree_runs():
    dataset = synth_classification(32, 3, margin=0.2, noise=0.1, seed=5)
    plan = small_plan(learner="pegasos", loss="zeroone", k_values=(4,),
                      schedulers=("tree",), orderings=("fixed", "randomized"),
                      repetitions=2, verify=True)
    records = list(iter_run_records(plan, dataset))
    assert all(r["status"] == "ok" for r in records)


# ---------------------------------------------------------------------------
# Bench


def test_bench_rows_sweep():
    dataset = synth_classification(120, 3, margin=0.2, noise=0.1, seed=6)
    plan = small_plan(learner="pegasos", loss="zeroone", k_values=(4,),
                      repetitions=2)
    rows = list(bench_rows(plan, dataset, [60, 120]))
    assert len(rows) == 4  # 2 n values x 2 schedulers
    by_key = {(r["n"], r["scheduler"]): r for r in rows}
    assert by_key[(60, "tree")]["point_updates"] == 60 * 2
    assert by_key[(60, "standard")]["point_updates"] == 60 * 3
    with pytest.raises(ValueError):
        list(bench_rows(plan, dataset, [120, 60]))
    with pytest.raises(ValueError):
        list(bench_rows(plan, dataset, [60, 500]))


def test_speedup_summary_puts_the_update_ratio_beside_the_wall_ratio():
    def row(scheduler, ordering, wall, updates):
        return {"n": 100, "k": 10, "scheduler": scheduler, "ordering": ordering, "reps": 3,
                "median_wall_time": repr(wall), "point_updates": updates}

    lines = speedup_summary([row("tree", "fixed", 0.5, 400), row("standard", "fixed", 1.5, 900),
                             row("tree", "randomized", 1.0, 400)])
    assert lines == [
        "n=100 k=10 ordering=fixed: standard/tree wall ratio 3.00, update ratio 2.25",
        "n=100 k=10 scheduler=tree: randomized/fixed wall ratio 2.00",
    ]


def test_stability_rows_check_their_arguments_when_called():
    plan = small_plan(learner="mean", loss="squared")
    for n_list, seeds, chunks in (([40], 0, 4), ([40], 2, 0), ([4], 2, 4), ([], 2, 4)):
        with pytest.raises(ValueError):
            stability_rows(plan, "regression:d=3", n_list, seeds, chunks)
    with pytest.raises(ValueError):
        stability_rows(plan, "spiral:d=3", [40], 2, 4)
    pegasos = small_plan(learner="pegasos", loss="zeroone")
    with pytest.raises(ValueError, match="-1 or \\+1"):
        stability_rows(pegasos, "regression:d=3", [40], 2, 4)


def test_bench_single_point_grid_single_row_per_cell():
    dataset = synth_classification(50, 3, margin=0.2, noise=0.1, seed=8)
    plan = small_plan(learner="pegasos", loss="zeroone", k_values=(5,),
                      schedulers=("tree",), repetitions=1)
    rows = list(bench_rows(plan, dataset, [50]))
    assert len(rows) == 1


# ---------------------------------------------------------------------------
# Stability


def test_stability_gap_zero_for_single_chunk():
    dataset = synth_classification(60, 4, margin=0.2, noise=0.1, seed=7)
    plan = small_plan(learner="pegasos", loss="zeroone")
    factory = make_learner_factory(plan, dataset)
    assert stability_gap(factory, dataset, 1, get_loss("zeroone"), seed=3) == 0.0


def test_stability_gap_zero_for_order_insensitive_learner():
    plan = small_plan(learner="mean", loss="squared")
    rows = list(stability_rows(plan, "regression:d=3,noise=0.2", [40, 80], 5, 4))
    assert [float(r["mean_gap"]) for r in rows] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Aggregation


def test_aggregate_hand_example():
    def record(row_id, estimate):
        return {
            "row_id": row_id, "status": "ok", "learner": "mean", "loss": "squared",
            "scheduler": "tree", "ordering": "fixed", "k": 2, "n": 10,
            "estimate": repr(estimate),
        }

    rows = aggregate_records([record(1, 0.1), record(2, 0.2), record(3, 0.3)])
    assert len(rows) == 1
    assert float(rows[0]["mean"]) == pytest.approx(0.2, rel=1e-12)
    assert float(rows[0]["std"]) == pytest.approx(0.0816496580927726, rel=1e-9)
    assert rows[0]["row_ids"] == "1;2;3"


def test_aggregate_single_record_and_grouping():
    base = {
        "status": "ok", "learner": "mean", "loss": "squared",
        "ordering": "fixed", "k": 2, "n": 10,
    }
    records = [
        dict(base, row_id=1, scheduler="tree", estimate="0.5"),
        dict(base, row_id=2, scheduler="standard", estimate="0.75"),
    ]
    rows = aggregate_records(records)
    assert len(rows) == 2  # schedulers grouped separately
    assert all(float(r["std"]) == 0.0 for r in rows)
    with pytest.raises(ValueError):
        aggregate_records([])


def test_render_pivot_mentions_every_scheduler():
    base = {
        "learner": "mean", "loss": "squared", "k": 2, "n": 10,
        "count": 1, "std": "0.0", "row_ids": "1",
    }
    rows = [
        dict(base, scheduler="tree", ordering="fixed", mean="0.5"),
        dict(base, scheduler="standard", ordering="fixed", mean="0.5"),
    ]
    text = render_pivot(rows)
    assert "tree/fixed" in text and "standard/fixed" in text


# ---------------------------------------------------------------------------
# CLI end to end


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_cli_run_report_roundtrip(tmp_path):
    out = tmp_path / "records.csv"
    code = main([
        "run", "--synth", "regression:n=30,d=2,noise=0.2,seed=1", "--learner", "mean",
        "--k", "2,3", "--scheduler", "both", "--reps", "2", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    records = read_csv(out)
    assert len(records) == 8
    assert all(r["status"] == "ok" for r in records)

    agg = tmp_path / "agg.csv"
    assert main(["report", str(out), "--out", str(agg)]) == 0
    grouped = read_csv(agg)
    assert len(grouped) == 4
    assert all(r["count"] == "2" for r in grouped)
    assert main(["report", str(out), "--pivot"]) == 0


def test_cli_run_is_deterministic_modulo_wall_time(tmp_path):
    args = [
        "run", "--synth", "classification:n=24,d=2,seed=3", "--learner", "pegasos",
        "--k", "4", "--scheduler", "both", "--ordering", "both", "--reps", "2",
        "--seed", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
    assert strip(read_csv(a)) == strip(read_csv(b))


def test_cli_run_trace_verify_and_json(tmp_path):
    out = tmp_path / "records.csv"
    jout = tmp_path / "records.json"
    code = main([
        "run", "--synth", "regression:n=16,d=2,noise=0.1,seed=2", "--learner", "mean",
        "--k", "4", "--reps", "1", "--trace", "--verify",
        "--out", str(out), "--json", str(jout),
    ])
    assert code == 0
    traces = read_csv(str(out) + ".trace")
    assert len(traces) == 7  # 2k-1 nodes for k=4
    assert {t["row_id"] for t in traces} == {"1"}
    payload = json.loads(jout.read_text())
    assert len(payload) == 1 and payload[0]["status"] == "ok"


def test_cli_data_file_and_transforms(tmp_path):
    data = tmp_path / "points.txt"
    data.write_text("1 1:2.0 2:1.0\n2 1:4.0\n1 2:3.0\n2 1:1.0 2:1.0\n", encoding="utf-8")
    out = tmp_path / "records.csv"
    code = main([
        "run", "--data", str(data), "--learner", "pegasos", "--binarize-label", "1",
        "--unit-variance", "--k", "2", "--reps", "1", "--out", str(out),
    ])
    assert code == 0
    assert read_csv(out)[0]["n"] == "4"


def test_cli_rejects_zero_one_labels_for_pegasos(tmp_path, capsys):
    data = tmp_path / "points.txt"
    data.write_text("1 1:2.0 2:1.0\n0 1:4.0\n1 2:3.0\n0 1:1.0 2:1.0\n", encoding="utf-8")
    args = ["run", "--data", str(data), "--learner", "pegasos", "--k", "2"]
    assert main(args) == 2
    assert "--binarize-label" in capsys.readouterr().err
    assert main(args + ["--binarize-label", "1"]) == 0


def test_cli_bench(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--synth", "classification:n=80,d=2,seed=4", "--learner", "pegasos",
        "--k", "4", "--scheduler", "both", "--n-grid", "40,80", "--reps", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert len(read_csv(out)) == 4


def test_cli_stability(tmp_path):
    out = tmp_path / "stability.csv"
    code = main([
        "stability", "--synth", "regression:d=3,noise=0.1",
        "--learner", "mean", "--n-list", "20,40", "--seeds", "3", "--chunks", "2",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert [float(r["mean_gap"]) for r in rows] == [0.0, 0.0]


def test_cli_validation_failures_exit_2(tmp_path, capsys):
    # k below 2 is a plan validation error
    assert main(["run", "--synth", "regression:n=10,d=2", "--learner", "mean",
                 "--k", "1"]) == 2
    # so is a bench with no repetitions
    assert main(["bench", "--synth", "regression:n=10,d=2", "--learner", "mean",
                 "--k", "2", "--n-grid", "10", "--reps", "0"]) == 2
    assert "repetitions" in capsys.readouterr().err
    # malformed data file is a validation error with a line number
    bad = tmp_path / "bad.txt"
    bad.write_text("1 3:1 2:1\n", encoding="utf-8")
    assert main(["run", "--data", str(bad), "--learner", "mean", "--k", "2"]) == 2
    # missing records file
    assert main(["report", str(tmp_path / "missing.csv")]) == 2
    # header-only records file: empty input error
    empty = tmp_path / "empty.csv"
    empty.write_text("row_id,status,estimate\n", encoding="utf-8")
    assert main(["report", str(empty)]) == 2


@pytest.mark.parametrize("args", [
    ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
     "--n-grid", "10", "--reps", "0"],
    ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
     "--n-grid", "20"],
    ["run", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "1"],
    ["run", "--synth", "regression:n=10,d=2", "--learner", "pegasos", "--k", "2"],
    ["stability", "--synth", "regression:d=3", "--learner", "mean", "--n-list", "20",
     "--seeds", "0", "--chunks", "2"],
    ["stability", "--synth", "regression:d=3", "--learner", "mean", "--n-list", "20",
     "--seeds", "2", "--chunks", "0"],
    ["run", "--synth", "blobs:n=30,d=3", "--learner", "lsqsgd", "--k", "2"],
    ["run", "--synth", "blobs:n=30,d=3", "--learner", "mean", "--k", "2"],
    ["stability", "--synth", "blobs:d=3", "--learner", "lsqsgd", "--n-list", "30",
     "--seeds", "2", "--chunks", "2"],
], ids=["bench-no-reps", "bench-grid-beyond-data", "run-k-below-2", "run-pegasos-real-labels",
        "stability-no-seeds", "stability-no-chunks", "run-lsqsgd-unlabeled",
        "run-mean-unlabeled", "stability-lsqsgd-unlabeled"])
def test_cli_writes_no_output_when_validation_fails(args, tmp_path, capsys):
    assert main(args) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()


def test_cli_run_exits_1_when_a_row_records_an_error(tmp_path):
    out = tmp_path / "records.csv"
    # k=50 exceeds n=10, so the first row fails and the second still runs
    code = main(["run", "--synth", "regression:n=10,d=2,seed=1", "--learner", "mean",
                 "--k", "50,2", "--out", str(out)])
    assert code == 1
    assert [r["status"] for r in read_csv(out)] == ["error", "ok"]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_rejects_thread_counts_above_the_cap(command, capsys):
    args = [command, "--synth", "regression:n=10,d=2", "--learner", "mean",
            "--threads", "65"]
    if command == "bench":
        args += ["--n-grid", "10"]
    assert main(args) == 2
    assert "at most 64" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treecv", "run", "--synth", "regression:n=12,d=2,seed=1",
         "--learner", "mean", "--k", "3", "--reps", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("row_id,status")
