"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

The summary tests are pure Python.  The others build perfbench_driver (as
run.py does, under .bench_build/) and drive ilat through it.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402
import stats  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(120), 90.0)
        self.assertEqual(stats.tail_percentile(288), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_sample_stats_on_known_samples(self):
        s = stats.SampleStats.of([float(v) for v in range(100, 0, -1)])
        self.assertEqual(s.n, 100)
        self.assertEqual((s.min, s.median, s.max), (1.0, 50.5, 100.0))
        self.assertEqual((s.q1, s.q3), (25.25, 75.75))
        self.assertEqual(s.tail_p, 90.0)
        self.assertAlmostEqual(s.tail, 90.1)
        self.assertIsNone(stats.SampleStats.of([1.0, 2.0]).tail)

    def test_quartiles_are_those_of_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        s = stats.SampleStats.of(values)
        self.assertEqual((s.q1, s.median, s.q3), (q1, q2, q3))
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)

    def test_log2_histogram_keeps_empty_buckets_and_extremes(self):
        buckets = stats.log2_histogram([0.5, 1.0, 3.0, 3.5, 100.0])
        self.assertEqual([b.lo_us for b in buckets], [1, 2, 4, 8, 16, 32, 64])
        self.assertEqual([b.count for b in buckets], [2, 2, 0, 0, 0, 0, 1])
        self.assertEqual((buckets[1].min, buckets[1].avg, buckets[1].max), (3.0, 3.25, 3.5))
        self.assertEqual(buckets[0].min, 0.5)


class HostPaceTest(unittest.TestCase):
    def test_slowness_is_mean_probe_time_in_the_window_over_the_reference(self):
        ref = run.PACE_REF_S
        samples = [(t, ref * (2.0 if 10 <= t <= 20 else 1.0)) for t in range(0, 31)]
        self.assertAlmostEqual(run.slowness(samples, 10.0, 20.0), 2.0)
        self.assertAlmostEqual(run.slowness(samples, 21.0, 30.0), 1.0)
        # Too short a window: the three samples nearest its middle.
        samples = [(0.0, ref), (1.0, 3 * ref), (2.0, 3 * ref), (3.0, 3 * ref), (9.0, ref)]
        self.assertAlmostEqual(run.slowness(samples, 1.9, 2.1), 3.0)

    def test_run_metrics_pool_repeats_and_divide_times_by_slowness(self):
        reps = []
        for wall, cpu in ((1.0, 0.8), (2.0, 1.6)):
            r = run.Repeat()
            r.cell_walls = [wall / 20] * 20
            r.wall_s, r.cpu_s, r.setup_s, r.peak_rss_kb = wall, cpu, 0.01 * wall, 1024
            reps.append(r)
        # The second repeat ran on a host twice as slow: scaled, the two agree.
        m = run.run_metrics(reps, [1.0, 2.0])
        self.assertAlmostEqual(m["cells_per_s"], 20.0)
        self.assertAlmostEqual(m["cell_ms_p50"], 50.0)
        self.assertAlmostEqual(m["cell_ms_tail"], 50.0)
        self.assertAlmostEqual(m["cpu_ms_per_cell"], 40.0)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        self.assertAlmostEqual(m["peak_rss_mb"], 1.0)
        unscaled = run.run_metrics(reps, [1.0, 1.0])
        self.assertAlmostEqual(unscaled["cells_per_s"], 40 / 3.0)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        run.build()
        cls.dir = os.path.join(".bench_build", "test-%d" % os.getpid())
        os.makedirs(cls.dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def test_crash_image_has_torn_tail_and_resume_is_byte_identical(self):
        spec = os.path.join(self.dir, "small.spec")
        run.write(spec, "name = small\nos = nt40\napp = pipeline\nseeds = 6\nseed = 3\n"
                        "params.media_frames = 8\nfault.disk.stall_ms = 40\n"
                        "sweep.fault.disk.stall_rate = 0, 0.2\n")
        journal = os.path.join(self.dir, "journal.jsonl")
        crash = os.path.join(self.dir, "crash.jsonl")
        out1 = os.path.join(self.dir, "out1")
        out2 = os.path.join(self.dir, "out2")
        run.run_e2e(os.path.join(self.dir, "p1"), [
            "--campaign=%s --jobs=2 --journal=%s --campaign-out=%s" % (spec, journal, out1)])

        self.assertEqual(run.build_crash_image(journal, crash), 6)
        with open(journal, "rb") as f:
            full = f.read()
        with open(crash, "rb") as f:
            image = f.read()
        lines = image.split(b"\n")
        self.assertEqual(len(lines), 8)  # header, 6 records, torn record
        self.assertTrue(full.startswith(image))
        self.assertFalse(image.endswith(b"\n"))
        self.assertGreater(len(lines[-1]), 0)

        res = run.run_e2e(os.path.join(self.dir, "p2"), [
            "--campaign=%s --jobs=2 --resume=%s --journal=%s --campaign-out=%s"
            % (spec, crash, crash, out2)])
        self.assertEqual(res.invocations[0][0], 0)
        self.assertIn("replaying 6 completed cell(s)", res.outputs[0])
        self.assertIn("dropped a torn final record", res.outputs[0])
        with open(os.path.join(out1, "aggregate.json"), "rb") as a, \
                open(os.path.join(out2, "aggregate.json"), "rb") as b:
            self.assertEqual(a.read(), b.read())

    def run_bench(self, pins):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), mock.patch.object(run, "PINS", pins):
            rc = run.main(["--workload", "gui_matrix", "--seed", str(run.DEFAULT_SEED),
                           "--seconds", "1"])
        self.assertEqual(rc, 0)
        return json.loads(stdout.getvalue().strip().splitlines()[-1])

    def test_pinned_digest_passes_and_doctored_digest_fails(self):
        result = self.run_bench(run.PINS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

        with open(run.PINS) as f:
            pins = json.load(f)
        pins["gui_matrix"] = "0" * 64
        doctored = os.path.abspath(os.path.join(self.dir, "doctored.json"))
        run.write(doctored, json.dumps(pins))
        result = self.run_bench(doctored)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
