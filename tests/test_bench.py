import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenarios import bench_script
from rulegraph.agents import REASK_LIMIT, MockProvider
from rulegraph.bench import (
    DatasetError,
    Sample,
    load_dataset,
    render_table,
    report_to_json,
    run_benchmark,
    score_sample,
)
from rulegraph.engine import RunConfig

FIXTURES = "fixtures"


def sample(questions_targets, sid="s", task="t"):
    questions = [q for q, _ in questions_targets]
    targets = [t for _, t in questions_targets]
    return Sample(id=sid, task_text=task, questions=tuple(questions), targets=tuple(tuple(t) for t in targets))


class TestLoadDataset:
    def test_trivia_fixture(self):
        samples = load_dataset(f"{FIXTURES}/trivia5.jsonl")
        assert [s.id for s in samples] == ["t1", "t2", "t3"]
        assert all(len(s.questions) == 5 for s in samples)
        assert all(len(s.targets) == 5 for s in samples)

    def test_other_fixture_shapes(self):
        assert len(load_dataset(f"{FIXTURES}/codenames.jsonl")) == 3
        assert len(load_dataset(f"{FIXTURES}/logicgrid.jsonl")) == 3

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "d.jsonl"
        records = [
            {"id": f"r{i}", "task": "t", "questions": ["q"], "targets": [["a"]]}
            for i in (3, 1, 2)
        ]
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        assert [s.id for s in load_dataset(str(path))] == ["r3", "r1", "r2"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "task": "t", "questions": ["q"], "targets": [["x"]]}\n'
            '{"id": "b", "task": "t", "questions": ["q"]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="^line 2: missing field 'targets'$"):
            load_dataset(str(path))

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "task": "t", "questions": [], "targets": []}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="^line 1: questions must be a non-empty list$"):
            load_dataset(str(path))
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="^line 1: invalid JSON: "):
            load_dataset(str(path))

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = '{"id": "a", "task": "t", "questions": ["q"], "targets": [["x"]]}\n'
        path.write_text(record + "  \n" + record.replace('"a"', '"b"'), encoding="utf-8")
        assert [s.id for s in load_dataset(str(path))] == ["a", "b"]

    def test_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("[1,2]\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="^line 1: record must be an object$"):
            load_dataset(str(path))

    def test_empty_target_list_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "task": "t", "questions": ["q"], "targets": [["x"]]}\n'
            '{"id": "b", "task": "t", "questions": ["q1", "q2"], "targets": [["x"], []]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="^line 2: every question needs at least one target string$"):
            load_dataset(str(path))

    def test_targets_must_align_with_questions(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "task": "t", "questions": ["q1", "q2"], "targets": [["x"]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="^line 1: targets must list one entry per question$"):
            load_dataset(str(path))


class TestScoreSample:
    def test_four_of_five(self):
        s = sample(
            [("q1", ["alpha"]), ("q2", ["beta"]), ("q3", ["gamma"]), ("q4", ["delta"]), ("q5", ["epsilon"])]
        )
        assert score_sample("alpha beta gamma delta", s) == (4, 0.8)

    def test_empty_output(self):
        s = sample([("q1", ["alpha"]), ("q2", ["beta"])])
        assert score_sample("", s) == (0, 0.0)

    def test_case_insensitive_substring(self):
        s = sample([("q", ["Guess Who's Coming to Dinner"])])
        output = "she won for guess who's coming to dinner (1967), of course"
        assert score_sample(output, s) == (1, 1.0)

    def test_any_target_counts(self):
        s = sample([("q", ["Mount Everest", "Everest"])])
        assert score_sample("it is everest", s) == (1, 1.0)

    def test_perfect_score_iff_all_match(self):
        s = sample([("q1", ["alpha"]), ("q2", ["beta"])])
        assert score_sample("alpha and beta", s)[1] == 1.0
        assert score_sample("alpha only", s)[1] < 1.0

    @given(st.text(max_size=80), st.text(min_size=1, max_size=10))
    def test_monotone_in_added_target(self, output, target):
        s = sample([("q1", [target]), ("q2", ["zz-never-there-zz"])])
        base_correct, base_score = score_sample(output, s)
        more_correct, more_score = score_sample(output + target, s)
        assert more_correct >= base_correct and more_score >= base_score
        assert 0.0 <= base_score <= 1.0

    def test_pure(self):
        s = sample([("q", ["alpha"])])
        assert score_sample("alpha", s) == score_sample("alpha", s) == (1, 1.0)


def bench_config():
    return RunConfig(provider=MockProvider(bench_script()), deterministic=True)


class TestRunBenchmark:
    def test_aggregate_matches_hand_computed_mean(self):
        dataset = load_dataset(f"{FIXTURES}/trivia5.jsonl")
        report = run_benchmark(dataset, bench_config(), dataset_name="trivia5")
        by_id = {s.id: s for s in report.per_sample}
        assert (by_id["t1"].correct, by_id["t1"].score) == (4, 0.8)
        assert (by_id["t2"].correct, by_id["t2"].score) == (2, 0.4)
        assert (by_id["t3"].correct, by_id["t3"].score) == (0, 0.0)
        assert report.aggregate == pytest.approx((0.8 + 0.4 + 0.0) / 3)
        assert report.run_stats["wall_time_s"] == 0.0
        assert report.run_stats["provider_calls"] > 0

    def test_empty_dataset(self):
        with pytest.raises(DatasetError, match="dataset contains no samples"):
            run_benchmark([], bench_config())

    def test_failing_sample_scores_zero_with_error_kind(self):
        script = bench_script()
        for attempt in (1, 2, 3):
            script[("broken", "T", "PA", attempt)] = "garbage"
        dataset = [
            sample([("q", ["Paris"])], sid="ok"),
            sample([("q", ["Paris"])], sid="broken"),
        ]
        config = RunConfig(provider=MockProvider(script), deterministic=True)
        report = run_benchmark(dataset, config)
        by_id = {s.id: s for s in report.per_sample}
        assert by_id["ok"].score == 1.0 and by_id["ok"].error is None
        assert by_id["broken"].score == 0.0
        assert by_id["broken"].error == "PlanningFailure"
        assert report.aggregate == pytest.approx(0.5)

    def test_final_fusion_failure_scores_zero_and_counts_its_calls(self):
        script = bench_script()
        for attempt in range(1, REASK_LIMIT + 2):
            script[("broken", "F", "FEA", attempt)] = "junk"
        config = RunConfig(provider=MockProvider(script), deterministic=True)
        ok, broken = sample([("q", ["Paris"])], sid="ok"), sample([("q", ["Paris"])], sid="broken")
        ok_calls = run_benchmark([ok], config).run_stats["provider_calls"]
        report = run_benchmark([ok, broken], config)
        by_id = {s.id: s for s in report.per_sample}
        assert (by_id["broken"].score, by_id["broken"].error) == (0.0, "FusionFailure")
        # the broken sample makes the ok sample's calls plus the final-fusion re-asks
        assert report.run_stats["provider_calls"] == 2 * ok_calls + REASK_LIMIT

    def test_report_serialization_is_stable(self):
        dataset = load_dataset(f"{FIXTURES}/trivia5.jsonl")
        first = report_to_json(run_benchmark(dataset, bench_config(), "trivia5"))
        second = report_to_json(run_benchmark(dataset, bench_config(), "trivia5"))
        assert first == second

    def test_table_lists_every_sample_and_aggregate(self):
        dataset = load_dataset(f"{FIXTURES}/trivia5.jsonl")
        table = render_table(run_benchmark(dataset, bench_config(), "trivia5"))
        lines = table.splitlines()
        assert lines[0].split() == ["sample", "correct", "score", "error"]
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("aggregate")
