"""Self-test of the benchmark's own checks and references (no apnlab needed).

Run from the root of the checkout:

    python3 apnbench/selftest.py

It shows that each output check rejects a wrong result, that the reference
computations agree with facts they do not use, and that the metric lists in
the code match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import random
import unittest

import reference as ref
from run import END_TO_END
from spans import PER_LAYER, layer_metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ChecksRejectWrongResults(unittest.TestCase):
    def test_rank_off_by_two(self):
        want = ref.PAPER_TABLE4_ROW12_RANK
        self.assertIsNone(ref.check_rank(want, want))
        self.assertIsNotNone(ref.check_rank(want + 2, want))
        self.assertIsNotNone(ref.check_rank(want - 2, want))

    def test_histogram_with_one_cell_changed(self):
        n = 8
        hist = ref.apn_histogram(n)
        self.assertIsNone(ref.check_apn_ddt(2, hist, n))
        # one DDT cell changed from 2 to 0
        changed = {0: hist[0] + 1, 2: hist[2] - 1}
        self.assertIsNotNone(ref.check_apn_ddt(2, changed, n))
        # one cell equal to 2 becomes 4
        self.assertIsNotNone(ref.check_apn_ddt(4, {0: hist[0] + 1, 2: hist[2] - 2, 4: 1}, n))

    def test_verifier_report_with_ok_flipped(self):
        good = {"ok": True, "tuples_checked": ref.key_lemma_tuples(2, 3)}
        self.assertIsNone(ref.check_verifier_report(good, "tuples_checked",
                                                    good["tuples_checked"]))
        flipped = dict(good, ok=False)
        self.assertIsNotNone(ref.check_verifier_report(
            flipped, "tuples_checked", good["tuples_checked"]))
        short = dict(good, tuples_checked=good["tuples_checked"] - 1)
        self.assertIsNotNone(ref.check_verifier_report(
            short, "tuples_checked", good["tuples_checked"]))


class References(unittest.TestCase):
    def test_moduli_irreducible(self):
        for n, mod in ref.MODULI.items():
            self.assertEqual(mod.bit_length() - 1, n)
            self.assertTrue(ref.is_irreducible(mod))
        self.assertFalse(ref.is_irreducible(0b1000001))  # x^6+1 = (x^3+1)^2

    def test_differential_uniformity(self):
        # Gold z^3 is APN on every GF(2^n); z^7 on GF(2^7) is not.
        for n in ref.MODULI:
            self.assertEqual(ref.ddt_delta(ref.power_lut(n, 3)), 2)
        self.assertEqual(ref.ddt_delta(ref.power_lut(7, 7)), 6)

    def test_affine_copy_keeps_invariants(self):
        rng = random.Random(7)
        n = 6
        f = ref.power_lut(n, 3)
        g = ref.affine_copy(f, n, rng)
        self.assertNotEqual(f, g)
        self.assertEqual(ref.ddt_delta(g), ref.ddt_delta(f))
        self.assertEqual(ref.dense_gamma_rank(g, n), ref.dense_gamma_rank(f, n))

    def test_dense_rank_of_the_zero_function(self):
        # f = 0 on GF(2^2): row (a, b) marks {(w, b) : w in GF(4)} whatever a
        # is, so there are 4 distinct rows, with disjoint supports.
        self.assertEqual(ref.dense_gamma_rank([0, 0, 0, 0], 2), 4)

    def test_key_lemma_counts_equal_across_shifts(self):
        # The seed picks s; equal counts keep the work independent of it.
        counts = {ref.trinomial_mu_count(3, s) for s in ref.valid_key_shifts(3)}
        self.assertEqual(len(counts), 1)


class Tracing(unittest.TestCase):
    def test_self_time_rounds_and_outermost(self):
        spans = [
            ["invariants.gamma_rank", 0.0, 10.0, -1, None],
            ["bitlinalg.absorb", 0.0, 1.0, 0, {"rows": 1, "pivots": 1, "basis_bytes": 8}],
            ["bitlinalg.xor_permute", 1.0, 1.5, 0, {"mask": 1, "bytes": 16}],
            ["bitlinalg.absorb", 1.5, 4.0, 0, {"rows": 1, "pivots": 1, "basis_bytes": 16}],
            ["bitlinalg.xor_permute", 4.0, 4.5, 0, {"mask": 2, "bytes": 32}],
            ["bitlinalg.absorb", 4.5, 9.0, 0, {"rows": 2, "pivots": 0, "basis_bytes": 16}],
            ["gf2n.sqr_vec", 11.0, 12.0, -1, {"elems": 4}],
            ["gf2n.mul_vec", 11.0, 12.0, 6, {"elems": 4}],
        ]
        m = layer_metrics(spans, 12.0)
        self.assertEqual(m["invariants.gamma_rank_s"], 10.0)
        self.assertEqual(m["invariants.self_s"], 1.0)
        self.assertEqual(m["invariants.rounds"], 2)
        self.assertEqual(m["invariants.round_s_max"], 5.0)
        self.assertEqual(m["bitlinalg.absorb_rows"], 4)
        self.assertEqual(m["bitlinalg.pivot_yield"], 0.5)
        self.assertEqual(m["gf2n.vec_calls"], 1)
        self.assertEqual(m["gf2n.vec_s"], 1.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_and_workload_lists_match(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        # gamma-rank-small runs by hand only: beside the other two, its
        # 17-33 s round would push a comparison of two commits past an hour.
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(WORKLOADS) - {"gamma-rank-small"})
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            PER_LAYER)


if __name__ == "__main__":
    unittest.main()
