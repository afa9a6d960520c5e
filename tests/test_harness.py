"""Harness and CLI: plans, record streams, budgets, aggregation, exit codes."""

import csv
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import pytest

from treecv import harness
from treecv.cli import _grid, build_parser, main
from treecv.harness import (
    LEARNER_NAMES,
    TAG_REPETITION,
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
    LOSSES,
    SQUARED,
    ZERO_ONE,
    Dataset,
    TreeCvConfig,
    derive_seed,
    get_loss,
    partition,
    synth_classification,
    synth_regression,
    tree_cv,
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
    # integral floats are whole numbers; they come back as ints
    assert parse_synth_spec("regression:n=1e3,seed=7.0") == ("regression", {"n": 1000, "seed": 7})
    for spec, message in [
        ("classification:n=40,dd=5", "unknown key 'dd'"),
        ("classification:nosie=0.4", "unknown key 'nosie'"),
        ("regression:margin=0.3", "unknown key 'margin'"),
        ("classification:clusters=2", "unknown key 'clusters'"),
        ("blobs:noise=0.1", "unknown key 'noise'"),
        ("regression:n=40,d=2.7", "d must be a whole number"),
        ("blobs:n=40.5", "n must be a whole number"),
        ("blobs:clusters=1.5", "clusters must be a whole number"),
        ("classification:seed=0.5", "seed must be a whole number"),
        ("regression:n=inf", "n must be a whole number"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_synth_spec(spec)


def test_make_synth_dataset_is_pinned_by_spec_string():
    a = make_synth_dataset("regression:n=50,d=3,seed=4")
    b = make_synth_dataset("regression:n=50,d=3,seed=4")
    c = make_synth_dataset("regression:n=50,d=3,seed=5")
    assert a == b and a != c


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


def test_plan_rejects_learner_loss_pairs_that_cannot_score_each_other():
    # k-means predicts centers, which only quantization scores; the other
    # learners predict one number per row, which quantization cannot score
    for learner in LEARNER_NAMES:
        for loss in LOSSES:
            plan = small_plan(learner=learner, loss=loss)
            if (learner == "kmeans") == (loss == "quantization"):
                plan.validate()
            else:
                with pytest.raises(ValueError, match="cannot score"):
                    plan.validate()


def test_plan_default_fold_counts_are_the_cli_default():
    args = build_parser().parse_args(["run", "--synth", "regression:n=10,d=2",
                                      "--learner", "mean"])
    assert _grid(args)["k_values"] == ExperimentPlan("mean", "squared").k_values == (5,)


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


def test_bench_rows_check_the_grid_against_the_fold_counts_when_called():
    dataset = synth_regression(40, 2, noise=0.2, seed=1)
    with pytest.raises(ValueError, match="must not be empty"):
        bench_rows(small_plan(), dataset, [])
    with pytest.raises(ValueError, match="smallest grid size"):
        bench_rows(small_plan(k_values=(30,)), dataset, [20, 40])
    with pytest.raises(ValueError, match="smallest grid size"):
        bench_rows(small_plan(k_values=("n",)), dataset, [1, 40])
    assert len(list(bench_rows(small_plan(k_values=(20, "n")), dataset, [20, 40]))) == 8


def test_bench_rows_summarize_the_run_records_of_each_cell():
    dataset = synth_classification(60, 3, margin=0.2, noise=0.1, seed=9)
    plan = small_plan(learner="pegasos", loss="zeroone", k_values=(4, "n"),
                      orderings=("fixed", "randomized"), repetitions=3, update_budget=2000)
    rows = list(bench_rows(plan, dataset, [30, 60]))
    expected = []
    for n in (30, 60):
        records = list(iter_run_records(plan, dataset.head(n)))
        for first in range(0, len(records), plan.repetitions):
            cell = records[first:first + plan.repetitions]
            row = {key: cell[0][key] for key in ("n", "k", "scheduler", "ordering")}
            if cell[0]["status"] == "budget-exceeded":
                row.update(reps=0, point_updates=row["n"] * row["k"] - row["n"],
                           estimate_mean="")
            else:
                row.update(reps=3, point_updates=cell[-1]["point_updates"],
                           estimate_mean=repr(math.fsum(float(r["estimate"]) for r in cell) / 3))
            expected.append(row)
    assert [{k: v for k, v in r.items() if k != "median_wall_time"} for r in rows] == expected
    # standard LOOCV needs 60*59 = 3540 updates at n=60, over the budget
    over = [r for r in rows if r["reps"] == 0]
    assert [(r["n"], r["k"], r["scheduler"]) for r in over] == [(60, 60, "standard")] * 2
    assert all(r["median_wall_time"] == "budget-exceeded" for r in over)
    assert all(float(r["median_wall_time"]) > 0 for r in rows if r["reps"])


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
    for key in ("n", "seed"):
        with pytest.raises(ValueError, match=f"may not set '{key}'"):
            stability_rows(plan, f"regression:d=3,{key}=50", [40], 2, 4)


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


def test_cli_run_trace_and_verify(tmp_path):
    out = tmp_path / "records.csv"
    code = main([
        "run", "--synth", "regression:n=16,d=2,noise=0.1,seed=2", "--learner", "mean",
        "--k", "4", "--reps", "1", "--trace", "--verify", "--out", str(out),
    ])
    assert code == 0
    traces = read_csv(str(out) + ".trace")
    assert len(traces) == 7  # 2k-1 nodes for k=4
    assert {t["row_id"] for t in traces} == {"1"}


def test_cli_verify_keeps_to_the_update_budget(tmp_path, monkeypatch):
    out = tmp_path / "records.csv"

    def run(k, *extra):
        assert main(["run", "--synth", "classification:n=300,d=5,seed=1", "--learner",
                     "pegasos", "--k", k, "--scheduler", "both", "--update-budget", "1000",
                     "--out", str(out), *extra]) == 0
        return read_csv(out)

    # the oracle replay of a LOOCV at n=300 costs 300*299 = 89,700 updates,
    # as the standard run does, so neither row runs
    replays = []
    monkeypatch.setattr(harness, "tree_feed_orders", lambda *args: replays.append(args))
    tree_row, standard_row = run("n", "--verify")
    assert (tree_row["scheduler"], standard_row["scheduler"]) == ("tree", "standard")
    assert tree_row["status"] == standard_row["status"] == "budget-exceeded"
    assert "oracle replay costs 89700 point updates" in tree_row["error"]
    assert tree_row["estimate"] == tree_row["point_updates"] == ""
    assert replays == []
    monkeypatch.undo()
    # at k=4 the replay costs 900 updates and runs
    assert [r["status"] for r in run("4", "--verify")] == ["ok", "ok"]
    # an unverified tree run does n*log2(k) updates and ignores the budget
    assert [r["status"] for r in run("n")] == ["ok", "budget-exceeded"]


def test_cli_update_budget_of_zero_skips_every_standard_run(tmp_path):
    out = tmp_path / "records.csv"
    assert main(["run", "--synth", "classification:n=60,d=3", "--learner", "pegasos",
                 "--update-budget", "0", "--scheduler", "both", "--out", str(out)]) == 0
    assert [(r["scheduler"], r["status"]) for r in read_csv(out)] == [
        ("tree", "ok"), ("standard", "budget-exceeded")]


def test_cli_trace_rows_are_the_tree_node_traces(tmp_path):
    out = tmp_path / "records.csv"
    spec = "classification:n=30,d=2,seed=6"
    assert main(["run", "--synth", spec, "--learner", "pegasos", "--k", "5",
                 "--scheduler", "both", "--ordering", "randomized", "--reps", "2",
                 "--seed", "3", "--trace", "--out", str(out)]) == 0
    dataset = make_synth_dataset(spec)
    factory = make_learner_factory(small_plan(learner="pegasos", loss="zeroone"), dataset)
    expected = []
    for rep in range(2):  # tree runs are rows 1 and 2; the standard rows 3 and 4 have none
        traces = []
        config = TreeCvConfig(ordering="randomized", seed=derive_seed(3, TAG_REPETITION, rep))
        tree_cv(factory, dataset, partition(dataset, 5), ZERO_ONE, config, trace_sink=traces)
        expected += [{"row_id": str(rep + 1), **{k: str(v) for k, v in asdict(t).items()}}
                     for t in traces]
    assert read_csv(str(out) + ".trace") == expected


def test_cli_report_rejects_records_that_are_not_run_records(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    assert main(["bench", "--synth", "regression:n=20,d=2", "--learner", "mean", "--k", "2",
                 "--n-grid", "20", "--out", str(bench)]) == 0
    out = tmp_path / "report.csv"
    assert main(["report", str(bench), "--out", str(out)]) == 2
    assert "row_id, status, learner, loss, estimate" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_rejects_a_cut_record_naming_it(tmp_path, capsys):
    records = tmp_path / "records.csv"
    assert main(["run", "--synth", "classification:n=20,d=2", "--learner", "pegasos",
                 "--k", "2", "--reps", "2", "--out", str(records)]) == 0
    lines = records.read_text(encoding="utf-8").splitlines()
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(lines[:3] + ["3,ok,pegasos"]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(cut)]) == 2
    assert "run record 3 is cut short" in capsys.readouterr().err


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


def test_cli_data_file_parses_as_its_handle_did_at_any_line_ending(tmp_path, monkeypatch):
    """`--data` reads the whole file with universal newlines and parses
    the text, so an LF, a CRLF and a lone-CR file write the CSV rows,
    wall time aside, that parsing through the file handle wrote."""
    from treecv import cli, parse_sparse_text

    lines = [b"# points", b"1 1:2.0 2:1.0", b"", b"-1 1:4.0  # a comment", b"1 2:3.0",
             b"-1 1:1.0 2:1.0", b"1 1:0.5", b"-1 2:-1e-3 3:7"]
    args = ["run", "--learner", "pegasos", "--k", "2,3", "--ordering", "both", "--reps", "1"]
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
    written = []
    for newline in (b"\n", b"\r\n", b"\r"):
        data = tmp_path / "points.txt"
        data.write_bytes(newline.join(lines) + newline)

        def through_the_handle(text, path=data):
            with open(path, "r", encoding="utf-8") as handle:
                assert text == handle.read()
                handle.seek(0)
                return parse_sparse_text(handle)

        for parse in (parse_sparse_text, through_the_handle):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "parse_sparse_text", parse)
                out = tmp_path / f"records-{len(written)}.csv"
                assert main(args + ["--data", str(data), "--out", str(out)]) == 0
            written.append(strip(read_csv(out)))
    assert len(written[0]) == 4 and all(rows == written[0] for rows in written)


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


SHARED_OPTIONS = ("--learner", "--loss", "--seed", "--lambda", "--alpha", "--clusters", "--out")


@pytest.mark.parametrize("option", SHARED_OPTIONS)
def test_cli_shared_options_parse_the_same_in_every_command(option):
    commands = build_parser()._subparsers._group_actions[0].choices
    described = []
    for name in ("run", "bench", "stability"):
        action = commands[name]._option_string_actions[option]
        described.append((action.dest, action.default, action.type, action.choices,
                          action.help, action.metavar, action.required))
    assert described[0] == described[1] == described[2]


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


NO_OUTPUT_CASES = [
    ("bench-no-reps",
     ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
      "--n-grid", "10", "--reps", "0"], "repetitions must be at least 1"),
    ("bench-grid-beyond-data",
     ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
      "--n-grid", "20"], "n grid exceeds dataset size"),
    ("run-repeated-k",
     ["run", "--synth", "classification:n=20,d=3", "--learner", "pegasos", "--k", "4,4"],
     "k values must not repeat, got [4, 4]"),
    ("bench-repeated-grid-size",
     ["bench", "--synth", "regression:n=20,d=2", "--learner", "mean", "--k", "2",
      "--n-grid", "10,10", "--reps", "1"], "n grid must be strictly ascending"),
    ("run-k-below-2",
     ["run", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "1"],
     "k values must be integers >= 2"),
    ("run-pegasos-real-labels",
     ["run", "--synth", "regression:n=10,d=2", "--learner", "pegasos", "--k", "2"],
     "needs every label to be -1 or +1"),
    ("stability-no-seeds",
     ["stability", "--synth", "regression:d=3", "--learner", "mean", "--n-list", "20",
      "--seeds", "0", "--chunks", "2"], "need at least one seed"),
    ("stability-no-chunks",
     ["stability", "--synth", "regression:d=3", "--learner", "mean", "--n-list", "20",
      "--seeds", "2", "--chunks", "0"], "need at least one training chunk"),
    ("run-lsqsgd-unlabeled",
     ["run", "--synth", "blobs:n=30,d=3", "--learner", "lsqsgd", "--k", "2"],
     "the data is unlabeled"),
    ("run-mean-unlabeled",
     ["run", "--synth", "blobs:n=30,d=3", "--learner", "mean", "--k", "2"],
     "the data is unlabeled"),
    ("stability-lsqsgd-unlabeled",
     ["stability", "--synth", "blobs:d=3", "--learner", "lsqsgd", "--n-list", "30",
      "--seeds", "2", "--chunks", "2"], "the data is unlabeled"),
    ("run-lsqsgd-negative-alpha",
     ["run", "--synth", "regression:n=20,d=2", "--learner", "lsqsgd", "--k", "2",
      "--alpha", "-1"], "alpha must be positive"),
    ("run-pegasos-zero-lambda",
     ["run", "--synth", "classification:n=20,d=2", "--learner", "pegasos", "--k", "2",
      "--lambda", "0"], "lam must be positive"),
    ("run-lsqsgd-nan-alpha",
     ["run", "--synth", "regression:n=40,d=3", "--learner", "lsqsgd", "--k", "4",
      "--alpha", "nan"], "alpha must be positive and finite, got nan"),
    ("run-lsqsgd-infinite-alpha",
     ["run", "--synth", "regression:n=40,d=3", "--learner", "lsqsgd", "--k", "4",
      "--alpha", "inf"], "alpha must be positive and finite, got inf"),
    ("run-pegasos-nan-lambda",
     ["run", "--synth", "classification:n=40,d=3", "--learner", "pegasos", "--k", "4",
      "--lambda", "nan"], "lam must be positive and finite, got nan"),
    ("bench-pegasos-infinite-lambda",
     ["bench", "--synth", "classification:n=40,d=3", "--learner", "pegasos", "--k", "4",
      "--lambda", "inf", "--n-grid", "40"], "lam must be positive and finite, got inf"),
    ("run-negative-update-budget",
     ["run", "--synth", "classification:n=60,d=3", "--learner", "pegasos", "--update-budget",
      "-5", "--scheduler", "both"], "update budget must be at least 0, got -5"),
    ("bench-negative-update-budget",
     ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
      "--n-grid", "10", "--update-budget", "-1"], "update budget must be at least 0, got -1"),
    ("bench-kmeans-no-clusters",
     ["bench", "--synth", "blobs:n=20,d=2", "--learner", "kmeans", "--k", "2",
      "--clusters", "0", "--n-grid", "20"], "n_clusters must be at least 1"),
    ("stability-lsqsgd-zero-alpha",
     ["stability", "--synth", "regression:d=3", "--learner", "lsqsgd", "--alpha", "0",
      "--n-list", "20", "--seeds", "2", "--chunks", "2"], "alpha must be positive"),
    ("bench-k-above-smallest-grid-size",
     ["bench", "--synth", "regression:n=40,d=2", "--learner", "mean", "--k", "30",
      "--n-grid", "20,40"], "the smallest grid size"),
    ("run-negative-threads",
     ["run", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
      "--threads", "-1"], "error: threads must be at least 0 and at most 64, got -1"),
    ("bench-negative-threads",
     ["bench", "--synth", "regression:n=10,d=2", "--learner", "mean", "--k", "2",
      "--n-grid", "10", "--threads", "-1"],
     "error: threads must be at least 0 and at most 64, got -1"),
    ("run-kmeans-squared",
     ["run", "--synth", "regression:n=60,d=3", "--learner", "kmeans", "--loss", "squared",
      "--k", "3"], "loss 'squared' cannot score learner 'kmeans'"),
    ("run-kmeans-squared-one-feature",
     ["run", "--synth", "regression:n=60,d=1", "--learner", "kmeans", "--loss", "squared",
      "--k", "3"], "loss 'squared' cannot score learner 'kmeans'"),
    ("run-kmeans-zeroone",
     ["run", "--synth", "classification:n=60,d=3", "--learner", "kmeans", "--loss",
      "zeroone", "--k", "3"], "loss 'zeroone' cannot score learner 'kmeans'"),
    ("run-lsqsgd-quantization",
     ["run", "--synth", "regression:n=9,d=3", "--learner", "lsqsgd", "--loss", "quantization",
      "--k", "3"], "loss 'quantization' cannot score learner 'lsqsgd'"),
    ("bench-pegasos-quantization",
     ["bench", "--synth", "classification:n=20,d=2", "--learner", "pegasos", "--loss",
      "quantization", "--k", "2", "--n-grid", "20"],
     "loss 'quantization' cannot score learner 'pegasos'"),
    ("stability-kmeans-squared",
     ["stability", "--synth", "regression:d=3", "--learner", "kmeans", "--loss", "squared",
      "--n-list", "20", "--seeds", "2", "--chunks", "2"],
     "loss 'squared' cannot score learner 'kmeans'"),
    ("run-synth-unknown-keys",
     ["run", "--synth", "classification:n=40,dd=5,nosie=0.4", "--learner", "pegasos",
      "--k", "2"], "unknown key 'dd' in classification spec"),
    ("stability-synth-fractional-d",
     ["stability", "--synth", "regression:d=2.7", "--learner", "mean", "--n-list", "20",
      "--seeds", "2", "--chunks", "2"], "d must be a whole number"),
    ("stability-synth-sets-n",
     ["stability", "--synth", "regression:n=50,d=3", "--learner", "mean", "--n-list",
      "20,40", "--seeds", "2", "--chunks", "2"], "the stability spec may not set 'n'"),
    ("stability-synth-sets-seed",
     ["stability", "--synth", "regression:d=3,seed=4", "--learner", "mean", "--n-list",
      "20,40", "--seeds", "2", "--chunks", "2"], "the stability spec may not set 'seed'"),
    ("run-classification-nan-noise",
     ["run", "--synth", "classification:n=40,d=3,noise=nan", "--learner", "pegasos",
      "--k", "2"], "noise must be finite and in [0, 1], got nan"),
    ("run-classification-negative-noise",
     ["run", "--synth", "classification:n=40,d=3,noise=-0.5", "--learner", "pegasos",
      "--k", "2"], "noise must be finite and in [0, 1], got -0.5"),
    ("bench-classification-noise-above-1",
     ["bench", "--synth", "classification:n=40,d=3,noise=1.5", "--learner", "pegasos",
      "--k", "2", "--n-grid", "40"], "noise must be finite and in [0, 1], got 1.5"),
    ("run-classification-infinite-margin",
     ["run", "--synth", "classification:n=40,d=3,margin=inf", "--learner", "pegasos",
      "--k", "2"], "margin must be finite, got inf"),
    ("run-classification-negative-margin",
     ["run", "--synth", "classification:n=40,d=3,margin=-1", "--learner", "pegasos",
      "--k", "4"], "margin must be at least 0, got -1"),
    ("run-regression-negative-noise",
     ["run", "--synth", "regression:n=40,d=3,noise=-1", "--learner", "mean", "--k", "2"],
     "noise must be finite and at least 0, got -1"),
    ("stability-regression-nan-noise",
     ["stability", "--synth", "regression:d=3,noise=nan", "--learner", "mean", "--n-list",
      "20", "--seeds", "2", "--chunks", "2"], "noise must be finite and at least 0, got nan"),
    ("run-blobs-negative-spread",
     ["run", "--synth", "blobs:n=40,d=3,spread=-2", "--learner", "kmeans", "--k", "2"],
     "spread must be finite and at least 0, got -2"),
]


@pytest.mark.parametrize("args,message", [case[1:] for case in NO_OUTPUT_CASES],
                         ids=[case[0] for case in NO_OUTPUT_CASES])
def test_cli_writes_no_output_when_validation_fails(args, message, tmp_path, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
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
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "treecv", "run", "--synth", "regression:n=12,d=2,seed=1",
         "--learner", "mean", "--k", "3", "--reps", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("row_id,status")
