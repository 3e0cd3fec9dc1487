#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program it measures).

    python3 perfbench/test_perfbench.py
    PERFBENCH_TRACE=.bench_work/batch/trace.json python3 perfbench/test_perfbench.py

The second form also checks a trace written by a ``--trace 1`` run.
"""

import filecmp
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import spans  # noqa: E402


def inputs(seed, root):
    """Everything a workload feeds the program for ``seed``: the corpus
    files, then every edited file of the edit sequence and the request
    schedule, written under ``root``."""
    c = corpus.Corpus(seed)
    c.write(os.path.join(root, "src"))
    log = []
    for i, (kind, f, exp, delta) in enumerate(corpus.edit_plan(c, 30)):
        corpus.write_file(os.path.join(root, "edit%02d_%s" % (i, f)),
                          c.render(f)[0])
        log.append((kind, f, sorted(exp), delta))
    log.append(corpus.request_schedule(c, 300))
    return log


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes_and_schedules(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            la, lb = inputs(7, a), inputs(7, b)
            self.assertEqual(la, lb)
            cmp = filecmp.dircmp(a, b)
            self.assertEqual(cmp.diff_files + cmp.left_only + cmp.right_only,
                             [])
            src = filecmp.dircmp(os.path.join(a, "src"),
                                 os.path.join(b, "src"))
            self.assertEqual(src.diff_files, [])
            self.assertEqual(len(src.same_files), len(corpus.Corpus(7).files))
            for name in src.same_files:
                self.assertTrue(filecmp.cmp(os.path.join(a, "src", name),
                                            os.path.join(b, "src", name),
                                            shallow=False))

    def test_another_seed_gives_other_inputs_of_the_same_shape(self):
        a, b = corpus.Corpus(1), corpus.Corpus(2)
        self.assertEqual(a.files, b.files)
        self.assertEqual(len(a.expected()), len(b.expected()))
        self.assertNotEqual(a.render("h000.c")[0], b.render("h000.c")[0])

    def test_edit_deltas_track_the_report_set(self):
        c = corpus.Corpus(3)
        before = c.expected()
        for kind, f, exp, (new, known, fixed) in corpus.edit_plan(c, 40):
            self.assertEqual(len(exp - before), new)
            self.assertEqual(len(before - exp), fixed)
            self.assertEqual(known, len(exp & before))
            before = exp


def check_additivity(test, sp):
    per = spans.per_op(sp, spans.attribute(sp))
    test.assertTrue(per)
    for op, o in per.items():
        total = sum(o["layers"].values()) + o["unattributed"]
        test.assertAlmostEqual(total, o["wall"], delta=1e-6 * o["wall"] + 1,
                               msg="op %d" % op)
        test.assertGreaterEqual(o["unattributed"], 0)


def span(sid, parent, op, name, start, end, tid=1):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "start": start, "end": end, "tid": tid, "bytes": 0}


class Attribution(unittest.TestCase):
    def test_nested_spans_get_duration_minus_children(self):
        sp = [span(1, 0, 1, "op", 0, 100),
              span(2, 1, 1, "driver.run", 10, 90),
              span(3, 2, 1, "engine.analyze_root", 20, 50),
              span(4, 2, 1, "store.record", 60, 70)]
        self_ns = spans.attribute(sp)
        self.assertEqual(self_ns, {1: 20, 2: 40, 3: 30, 4: 10})
        check_additivity(self, sp)

    def test_parallel_children_split_the_wall_clock(self):
        sp = [span(1, 0, 1, "op", 0, 100),
              span(2, 1, 1, "driver.run", 0, 100),
              span(3, 2, 1, "engine.analyze_root", 10, 60, tid=2),
              span(4, 2, 1, "engine.analyze_root", 20, 80, tid=3)]
        self_ns = spans.attribute(sp)
        self.assertAlmostEqual(self_ns[3], 10 + 20)
        self.assertAlmostEqual(self_ns[4], 20 + 20)
        self.assertAlmostEqual(self_ns[2], 30)
        self.assertAlmostEqual(self_ns[1], 0)
        check_additivity(self, sp)

    def test_operations_are_attributed_separately(self):
        sp = [span(1, 0, 1, "op", 0, 50), span(2, 1, 1, "cfg.build", 5, 45),
              span(3, 0, 2, "op", 60, 90),
              span(4, 3, 2, "service.round_trip", 61, 89),
              span(5, 4, 2, "driver.run", 62, 88, tid=4)]
        per = spans.per_op(sp, spans.attribute(sp))
        self.assertEqual(per[1]["unattributed"], 10)
        self.assertEqual(per[2]["layers"]["driver"], 26)
        check_additivity(self, sp)

    @unittest.skipUnless(os.environ.get("PERFBENCH_TRACE"),
                         "set PERFBENCH_TRACE to a --trace 1 output")
    def test_recorded_trace_adds_up(self):
        check_additivity(self, spans.load(os.environ["PERFBENCH_TRACE"]))


if __name__ == "__main__":
    unittest.main()
