"""dsmem_perfbench emits exactly the workloads and metrics BENCHMARK.json
declares. Run through `python3 perfbench/run.py --selftest`, which
builds dsmem_perfbench and passes its path in PERFBENCH_EXE."""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)


class MetricNames(unittest.TestCase):

    def listed(self, trace):
        out = subprocess.run(
            [os.environ["PERFBENCH_EXE"], "--list-metrics", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        return dict(line.split() for line in out.splitlines())

    def test_end_to_end(self):
        self.assertEqual(self.listed(0), run.expected_metrics(0))

    def test_per_layer(self):
        self.assertEqual(self.listed(1), run.expected_metrics(1))

    def test_workloads(self):
        # run.py also accepts long_trace, which BENCHMARK.json leaves
        # out as unsteady on the reference host (README.md).
        self.assertEqual([w["name"] for w in run.spec()["workloads"]],
                         [w for w in run.WORKLOADS if w != "long_trace"])


if __name__ == "__main__":
    unittest.main()
