"""Output check for the what-if answer benchmark.

Answers are deterministic and do not depend on engine or shard count, so an
answer passes only when its fields equal, as text, those of an independent
computation of the same request (perfbench_replay's oracle). `cache_hit` is
not compared: it depends on what the daemon saw before.
"""

import json
import re

def raw_field(line, key):
    """The source token of a top-level scalar field, or None.

    Comparing tokens instead of parsed floats keeps the check exact: the
    daemon and the CLI print milliseconds with three decimals.
    """
    match = re.search(r'"%s":\s*(-?[0-9][0-9.eE+-]*|true|false|null)' % re.escape(key), line)
    return match.group(1) if match else None


class Verdict:
    """Tally of one run's answers."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0          # answered ok, and the answer passed the check
        self.wrong = 0       # answered ok with a value the oracle disagrees with
        self.errors = []     # first few problems, for the log

    def note(self, message):
        if len(self.errors) < 10:
            self.errors.append(message)

    @property
    def failed(self):
        return self.attempted - self.ok

    @property
    def correct(self):
        """Every request got an ok answer that passed the check. A refusal
        or a missing answer is not wrong, but it still fails the run."""
        return self.wrong == 0 and self.attempted > 0 and self.failed == 0


def check_predict(requests, responses, expected, verdict, checked_ids=None):
    """Checks serve or CLI predict answers.

    requests:  {id: request dict}, every request attempted.
    responses: list of (id, response line) in arrival order; a None line is a
               request that got no answer (crash, timeout).
    expected:  {id: {"baseline_ms": str, "predicted_ms": str, "tasks": str}}
               from the oracle; fields missing from the dict (the CLI's JSON
               has no `tasks`) are not compared.
    checked_ids: ids whose values are compared with `expected`; None means
               every id. The rest must still be well-formed ok answers.
    """
    verdict.attempted += len(requests)
    seen = set()
    for request_id, line in responses:
        if request_id not in requests:
            verdict.wrong += 1
            verdict.note("answer for unknown id %r" % (request_id,))
            continue
        if request_id in seen:
            verdict.wrong += 1
            verdict.note("second answer for id %r" % (request_id,))
            continue
        seen.add(request_id)
        if line is None:
            verdict.note("no answer for id %r" % (request_id,))
            continue
        try:
            answer = json.loads(line)
        except ValueError:
            verdict.wrong += 1
            verdict.note("unparseable answer for id %r: %s" % (request_id, line[:120]))
            continue
        if "id" in answer and answer["id"] != request_id:
            verdict.wrong += 1
            verdict.note("answer carries id %r, expected %r" % (answer["id"], request_id))
            continue
        # The CLI's --json file has no `ok` field: its failures show as a
        # nonzero exit, which the caller records as a missing answer.
        if answer.get("ok", True) is not True:
            verdict.note("id %r refused: %s" % (request_id, answer.get("code")))
            continue
        if checked_ids is None or request_id in checked_ids:
            want = expected.get(request_id)
            if want is None:
                verdict.wrong += 1
                verdict.note("no oracle value for id %r" % (request_id,))
                continue
            mismatched = [k for k, v in want.items() if raw_field(line, k) != v]
            if mismatched:
                verdict.wrong += 1
                verdict.note("id %r differs from the oracle in %s: %s" %
                             (request_id, ",".join(mismatched), line[:200]))
                continue
        elif any(raw_field(line, k) is None for k in ("baseline_ms", "predicted_ms")):
            verdict.wrong += 1
            verdict.note("id %r answer lacks its fields: %s" % (request_id, line[:200]))
            continue
        verdict.ok += 1
    for request_id in requests:
        if request_id not in seen:
            verdict.note("no answer for id %r" % (request_id,))


def parse_oracle(text):
    """Parses perfbench_replay oracle output: id, baseline, predicted, tasks."""
    expected = {}
    for line in text.splitlines():
        request_id, baseline, predicted, tasks = line.split("\t")
        expected[int(request_id)] = {"baseline_ms": baseline, "predicted_ms": predicted,
                                     "tasks": tasks}
    return expected
