"""Tests of the benchmark's output check (run: python3 perfbench/test_check.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402

GOOD = ('{"id": 7, "ok": true, "what_if": "amp", "baseline_ms": 421.200, '
        '"predicted_ms": 338.272, "speedup_pct": 19.69, "speedup_ratio": 1.245, '
        '"tasks": 14560, "cache_hit": true}')
EXPECTED = {7: {"baseline_ms": "421.200", "predicted_ms": "338.272", "tasks": "14560"}}
REQUESTS = {7: {"id": 7, "verb": "predict", "what_if": "amp"}}


def run(responses, requests=REQUESTS, expected=EXPECTED, checked_ids=None):
    verdict = check.Verdict()
    check.check_predict(requests, responses, expected, verdict, checked_ids)
    return verdict


class PredictCheckTest(unittest.TestCase):
    def test_accepts_a_correct_answer(self):
        verdict = run([(7, GOOD)])
        self.assertTrue(verdict.correct)
        self.assertEqual((verdict.attempted, verdict.ok, verdict.failed), (1, 1, 0))

    def test_cache_hit_is_not_compared(self):
        self.assertTrue(run([(7, GOOD.replace('"cache_hit": true', '"cache_hit": false'))]).correct)

    def test_rejects_a_corrupted_prediction(self):
        verdict = run([(7, GOOD.replace("338.272", "338.273"))])
        self.assertFalse(verdict.correct)
        self.assertEqual(verdict.failed, 1)

    def test_rejects_corrupted_baseline_and_tasks(self):
        self.assertFalse(run([(7, GOOD.replace("421.200", "421.2"))]).correct)
        self.assertFalse(run([(7, GOOD.replace("14560", "14561"))]).correct)

    def test_rejects_a_second_answer_for_one_id(self):
        self.assertFalse(run([(7, GOOD), (7, GOOD)]).correct)

    def test_rejects_an_answer_carrying_another_id(self):
        self.assertFalse(run([(7, GOOD.replace('"id": 7', '"id": 8'))]).correct)

    def test_refusals_and_missing_answers_fail_without_being_wrong(self):
        overloaded = '{"id": 7, "ok": false, "code": "overloaded", "error": "queue full"}'
        for responses in ([(7, overloaded)], [(7, None)], []):
            verdict = run(responses)
            self.assertEqual(verdict.failed, 1)
            self.assertEqual(verdict.wrong, 0)
            self.assertFalse(verdict.correct)

    def test_unchecked_ids_still_need_an_ok_answer(self):
        verdict = run([(7, GOOD.replace("338.272", "1.000"))], checked_ids=set())
        self.assertEqual(verdict.ok, 1)
        self.assertFalse(run([(7, '{"id": 7, "ok": true}')], checked_ids=set()).correct)

    def test_cli_answers_compare_the_fields_the_cli_writes(self):
        cli_json = '{\n  "what_if": "amp",\n  "baseline_ms": 421.200,\n  "predicted_ms": 338.272\n}\n'
        expected = {7: {"baseline_ms": "421.200", "predicted_ms": "338.272"}}
        self.assertTrue(run([(7, cli_json)], expected=expected).correct)
        self.assertFalse(run([(7, cli_json.replace("338.272", "338.000"))],
                             expected=expected).correct)


class OracleParseTest(unittest.TestCase):
    def test_parses_tab_separated_rows(self):
        self.assertEqual(check.parse_oracle("7\t421.200\t338.272\t14560\n"), EXPECTED)


class HungRunTest(unittest.TestCase):
    def test_a_run_without_answers_still_reports_its_failures(self):
        import run as bench
        hung = bench.Run()
        hung.setup_s = [1.0]
        hung.verdict.attempted = 2
        metrics, _, _ = bench.end_to_end(hung)
        self.assertEqual(metrics["answers_per_s"]["value"], 0.0)
        self.assertEqual(metrics["ok_frac"]["value"], 0.0)
        self.assertFalse(hung.verdict.correct)


if __name__ == "__main__":
    unittest.main()
