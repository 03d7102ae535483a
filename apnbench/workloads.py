"""The three workloads: their inputs, their operations and the checks.

Each workload has ``setup(seed)``, which builds the inputs through apnlab
(the part timed as set-up), ``expect(state)``, which computes the expected
values with ``reference`` and is not timed, and ``ops(state, expected)``,
which lists one round of operations.  An operation returns ``None`` when its
output checks out and a message when it does not; it raises ``KnownFault``
for the one fault the benchmark keeps on purpose.

Seeds only choose inputs whose cost does not depend on the choice (affine
maps, trinomial members, the key lemma's Frobenius shift, whose valid mu
counts are equal), so every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import reference as ref


class KnownFault(Exception):
    """An operation that fails through a known fault of the program."""


def _cli(argv: list[str]) -> dict:
    """Run the apnlab CLI in this process; return its JSON document."""
    from apnlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"apnlab {' '.join(argv)} exited {code}: {buf.getvalue()}")
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# gamma-rank-gf256: the paper's reproduction command for Table 4, row 12


class GammaRankGF256:
    ARGV = ["table", "--paper-table", "4", "--rows", "12"]

    def setup(self, seed: int) -> dict:
        # The CLI builds its own fields and the twelve Table 4 rows inside the
        # timed call, as a user's run does; set-up is the import alone.
        import apnlab.cli  # noqa: F401

        return {}

    def expect(self, state: dict) -> dict:
        return {"rank": ref.PAPER_TABLE4_ROW12_RANK}

    def ops(self, state: dict, expected: dict) -> list:
        def table_row_12():
            doc = _cli(self.ARGV)
            return ref.check_rank(doc["rows"][0]["gamma_rank"], expected["rank"])

        return [("table-4-row-12", table_row_12)]


# ---------------------------------------------------------------------------
# gamma-rank-small: Γ-ranks of the power-function catalog at n = 6 and 7


class GammaRankSmall:
    #: One member per tag, wherever the catalog admits it.  Kasami i=1 is
    #: Gold i=1 (z^3), so Kasami takes the least i with another exponent;
    #: at n=6 that leaves none.  Welch and Inverse need odd n.
    CATALOG = (
        {"tag": "Gold", "n": 6, "i": 1},
        {"tag": "Gold", "n": 7, "i": 1},
        {"tag": "Kasami", "n": 7, "i": 2},
        {"tag": "Welch", "n": 7},
        {"tag": "Inverse", "n": 7},
    )

    def setup(self, seed: int) -> dict:
        import numpy as np
        from apnlab import families, vbf

        rng = random.Random(seed)
        pairs = []
        for desc in self.CATALOG:
            inst = families.build_from_descriptor(desc)
            table = inst.table
            copy = ref.affine_copy(table.lut.tolist(), desc["n"], rng)
            copy_table = vbf.FunctionTable(
                table.field, np.array(copy, dtype=table.lut.dtype))
            pairs.append((desc, inst.label, table, copy_table))
        return {"pairs": pairs}

    def expect(self, state: dict) -> dict:
        n, d = 6, 3  # the catalog's first entry, Gold i=1 on GF(2^6)
        return {"dense_rank_6": ref.dense_gamma_rank(ref.power_lut(n, d), n)}

    def ops(self, state: dict, expected: dict) -> list:
        from apnlab import invariants

        ranks: dict[str, int] = {}
        out = []
        for desc, label, table, copy_table in state["pairs"]:
            key = f"n{desc['n']}-{label}"

            def original(key=key, table=table, n=desc["n"]):
                ranks[key] = invariants.gamma_rank(table).gamma_rank
                if n == 6:
                    return ref.check_rank(ranks[key], expected["dense_rank_6"])
                return None

            def affine_copy(key=key, copy_table=copy_table):
                got = invariants.gamma_rank(copy_table).gamma_rank
                return ref.check_rank(got, ranks[key])

            out += [(key, original), (key + "-affine-copy", affine_copy)]
        return out


# ---------------------------------------------------------------------------
# apn-and-lemmas: DDT/APN tests and the two lemma verifiers


class ApnAndLemmas:
    BIVARIATE_M = 7  # NewBivariate on GF(2^14)
    TRINOMIAL_M = 4  # NewTrinomial members on GF(2^12)
    TRINOMIAL_SAMPLE = 4
    KEY_M = 3
    RESULTANT_M = 7
    CUBIC_N, CUBIC_D = 7, 7  # z^7 on GF(2^7): cubic, not APN

    def setup(self, seed: int) -> dict:
        from apnlab import families, gf2n, vbf

        rng = random.Random(seed)
        bivariate = families.make_new_bivariate(self.BIVARIATE_M).table
        m = self.TRINOMIAL_M
        params = families.search_trinomial_params(m)
        field = gf2n.field_new(3 * m)
        sub_step = field.mult_order // ((1 << m) - 1)  # g^(k*sub_step) lies in GF(2^m)
        trinomials = []
        for s, mu in rng.sample(params, self.TRINOMIAL_SAMPLE):
            v = field.element(field.primitive_power(sub_step * rng.randrange((1 << m) - 1)))
            trinomials.append(families.make_new_trinomial(m, s, mu, v).table)
        cubic_field = gf2n.field_new(self.CUBIC_N)
        cubic = vbf.UnivariatePoly.monomial(cubic_field, self.CUBIC_D).to_table()
        return {
            "bivariate": bivariate,
            "trinomials": trinomials,
            "cubic": cubic,
            "key_s": rng.choice(ref.valid_key_shifts(self.KEY_M)),
        }

    def expect(self, state: dict) -> dict:
        return {
            "key_tuples": ref.key_lemma_tuples(self.KEY_M, state["key_s"]),
            "resultant_points": ref.resultant_points(self.RESULTANT_M),
            "cubic_delta": ref.ddt_delta(ref.power_lut(self.CUBIC_N, self.CUBIC_D)),
        }

    def ops(self, state: dict, expected: dict) -> list:
        from apnlab import analysis
        from apnlab.errors import PreconditionError

        biv = state["bivariate"]
        n = biv.field.n

        def ddt_of(table):
            def op():
                summary = analysis.ddt(table)
                return ref.check_apn_ddt(summary.delta, summary.histogram,
                                         table.field.n)
            return op

        def is_apn():
            return None if analysis.is_apn(biv) is True else "is_apn is not True"

        def is_apn_quadratic():
            if analysis.is_apn_quadratic(biv) is True:
                return None
            return "is_apn_quadratic is not True"

        def key_lemma():
            doc = _cli(["verify", "--lemma", "key", "--m", str(self.KEY_M),
                        "--s", str(state["key_s"])])
            return ref.check_verifier_report(doc, "tuples_checked",
                                             expected["key_tuples"])

        def resultant():
            doc = _cli(["verify", "--lemma", "resultant",
                        "--m", str(self.RESULTANT_M)])
            return ref.check_verifier_report(doc, "checked",
                                             expected["resultant_points"])

        def cubic_quadratic_test():
            # The benchmark's own DDT gives delta=6; the shortcut is only
            # valid for quadratics, so True is a wrong answer, and False or a
            # PreconditionError naming the degree condition are right ones.
            apn = expected["cubic_delta"] == 2
            try:
                got = analysis.is_apn_quadratic(state["cubic"])
            except PreconditionError:
                return None if not apn else "PreconditionError on an APN input"
            if got is apn:
                return None
            if got is True:
                raise KnownFault(
                    f"is_apn_quadratic(z^{self.CUBIC_D}) on GF(2^{self.CUBIC_N}) "
                    f"is True; delta is {expected['cubic_delta']}")
            return f"is_apn_quadratic returned {got!r}"

        ops = [
            (f"ddt-bivariate-n{n}", ddt_of(biv)),
            (f"is-apn-bivariate-n{n}", is_apn),
            (f"is-apn-quadratic-bivariate-n{n}", is_apn_quadratic),
        ]
        ops += [(f"ddt-trinomial-{k}", ddt_of(t))
                for k, t in enumerate(state["trinomials"])]
        ops += [
            ("verify-key-lemma", key_lemma),
            ("verify-resultant", resultant),
            ("is-apn-quadratic-cubic", cubic_quadratic_test),
        ]
        return ops


WORKLOADS = {
    "gamma-rank-gf256": GammaRankGF256(),
    "gamma-rank-small": GammaRankSmall(),
    "apn-and-lemmas": ApnAndLemmas(),
}
