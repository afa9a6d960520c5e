"""The digest, oracle and fork-join tests once more with the compiled
kernels forced off, so the Python update and the recursion that stands
in for `tree_feed` stay checked on hosts that compile the kernels.
The digests include both k-means shapes, standard CV on parsed text and
tree LOOCV; the parser tests compare the Python loop with itself here,
which checks that a string and a stream still parse alike.  Each imported test runs here under the `python_path`
fixture; the tests of `tree_feed` assert there that it never runs,
and the shuffle tests that no shuffle calls the kernel."""

import pytest

from treecv.learners import _Feed

from test_acceptance import (
    test_criterion_02_trace_equivalence_deterministic_learners,
    test_criterion_09_determinism,
)
from test_dataio import (
    test_inputs_outside_the_compiled_grammar_go_to_python,
    test_the_compiled_parser_gives_the_python_parsers_bits_or_error,
    test_the_standard10_text_parses_alike_on_both_paths,
)
from test_harness import (
    test_cli_data_file_parses_as_its_handle_did_at_any_line_ending,
    test_cli_verify_keeps_to_the_update_budget,
    test_verify_flag_replays_tree_runs,
)
from test_reference_digests import (
    DIGESTS,
    digest_of,
    kfold16_lsqsgd_fixed,
    loocv_pegasos_randomized,
    test_report_digest_is_pinned,
)
from test_standard import (
    test_oracle_replays_tree_feeding_order_bit_exactly,
    test_oracle_with_dataset_order_equals_standard_fixed,
    test_parallel_folds_are_bit_identical_to_sequential,
    test_randomized_folds_are_the_oracles_replay_of_their_orders,
)
from test_tree import (
    test_a_failure_inside_the_level_loop_is_raised_as_the_recursion_raises_it,
    test_a_learner_narrower_than_the_data_raises_the_recursions_update_error,
    test_float32_parameters_give_the_oracles_fold_scores,
    test_fork_join_matches_sequential_bit_exactly,
    test_kmeans_fork_join_and_oracle_replay_equal_sequential,
    test_level_loop_reports_and_traces_are_the_recursions,
    test_level_table_feeds_most_ranges_of_the_n120_loocv_gates,
    test_level_table_on_a_ragged_partition_matches_the_oracle,
    test_level_table_under_fork_join_matches_sequential,
    test_small_subtree_bound_runs_the_recursion_above_and_level_loops_below,
    test_the_level_loop_shuffles_every_range_the_recursion_shuffles,
    test_the_n120_loocv_and_n320_k16_digest_shapes_run_the_level_loop,
    test_the_recursion_shuffles_in_the_kernel_and_the_oracle_orders_do_not,
    test_unlabeled_data_raises_the_recursions_update_error,
    test_zero_feature_data_runs_the_level_loop_once,
)

pytestmark = pytest.mark.usefixtures("python_path")


@pytest.mark.parametrize("estimate, seed, digest", [
    case for case in DIGESTS if case[0] in (loocv_pegasos_randomized, kfold16_lsqsgd_fixed)])
def test_without_the_kernels_the_tree_digests_never_enter_the_level_loop(estimate, seed, digest,
                                                                        monkeypatch):
    """The n=120 LOOCV and n=320 k=16 digest shapes, one `tree_feed` call
    each with the kernels, run by the recursion without them, to their
    pinned digests.  (The name is kept from the level loop, which
    `tree_feed` replaced.)"""
    entered = []
    monkeypatch.setattr(_Feed, "run_subtree", lambda *args: entered.append(args))
    assert digest_of(estimate(seed)) == digest
    assert entered == []
