#!/usr/bin/env python3
"""Tracing must be transparent: for one seed, the traced run of every
workload reproduces every deterministic output of the untraced run (rounds,
bits, member order, latencies, issued and completed counts).

    python3 perfbench/test_trace.py

Builds the benchmark like run.py does, then runs each workload twice with
--seconds 0, once with --trace 0 and once with --trace 1, and compares the
fingerprints the two runs print. With --seconds 0 a run makes only the fixed
first units that every timed run makes and takes its fingerprint from.
"""
import unittest

import run

SEED = 7


class TracingIsTransparent(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_workload(self, workload):
        fingerprints = []
        for trace in (0, 1):
            _, result = run.run(self.binary, workload, SEED, 0, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            fingerprints.append((result["attempted"], result["fingerprint"]))
        untraced, traced = fingerprints
        self.assertTrue(untraced[1])
        self.assertEqual(untraced, traced)

    def test_churn_4k(self):
        self.check_workload("churn-4k")

    def test_live_inproc_512(self):
        self.check_workload("live-inproc-512")

    def test_dht_16k(self):
        self.check_workload("dht-16k")


if __name__ == "__main__":
    unittest.main()
