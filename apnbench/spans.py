"""Span tracing around apnlab's public functions, and the per-layer metrics.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent span, counters) per call.
Functions are replaced in every ``apnlab`` module that holds them, so calls
through names that ``invariants`` and ``cli`` import are recorded too.
Spans stay in memory; ``layer_metrics`` reduces them at the end of the run.

A layer's time counts only its outermost spans (the ``mul_vec`` inside a
``sqr_vec`` is not counted again), and a span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "bitlinalg.absorb_s": ("s", "lower"),
    "bitlinalg.absorb_rows": ("count", "lower"),
    "bitlinalg.absorb_pivots": ("count", "higher"),
    "bitlinalg.pivot_yield": ("ratio", "higher"),
    "bitlinalg.absorb_rows_per_s": ("rows/s", "higher"),
    "bitlinalg.basis_mib": ("MiB", "lower"),
    "bitlinalg.xor_permute_s": ("s", "lower"),
    "bitlinalg.xor_permute_gb_per_s": ("GB/s", "higher"),
    "invariants.gamma_rank_s": ("s", "lower"),
    "invariants.self_s": ("s", "lower"),
    "invariants.rounds": ("count", "lower"),
    "invariants.round_s_max": ("s", "lower"),
    "gf2n.vec_s": ("s", "lower"),
    "gf2n.vec_calls": ("count", "lower"),
    "gf2n.vec_elems_per_s": ("elems/s", "higher"),
    "gf2n.tables_s": ("s", "lower"),
    "vbf.to_table_s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "analysis.ddt_s": ("s", "lower"),
    "analysis.ddt_pairs_per_s": ("pairs/s", "higher"),
    "analysis.is_apn_s": ("s", "lower"),
    "analysis.is_apn_quadratic_s": ("s", "lower"),
    "analysis.sweep_key_lemma_s": ("s", "lower"),
    "analysis.sweep_key_lemma_self_s": ("s", "lower"),
    "analysis.key_lemma_tuples_per_s": ("tuples/s", "higher"),
    "analysis.resultant_s": ("s", "lower"),
    "analysis.resultant_self_s": ("s", "lower"),
    "analysis.resultant_points_per_s": ("points/s", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

_GF2N_VEC = ("mul_vec", "mul_scalar_vec", "pow_vec", "inv_vec", "sqr_vec",
              "frob_vec", "trace_vec", "all_elements_vec")


def _absorb(args, result) -> dict:
    basis, rows = args[0], args[1]
    return {
        "rows": int(rows.shape[0]) if rows.ndim == 2 else 1,
        "pivots": int(result),
        "basis_bytes": basis.count * basis.words * 8,
    }


def _xor_permute(args, result) -> dict:
    return {"mask": int(args[1]), "bytes": int(args[0].nbytes + result.nbytes)}


def _ddt(args, result) -> dict:
    order = args[0].field.order
    return {"pairs": (order - 1) * order}


def _resultant(args, result) -> dict:
    return {"points": int(result.checked)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counters]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters=None, only_if=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, result)
            return result

        return traced

    def _patch_function(self, module, attr: str, name: str, counters=None):
        """Replace ``module.attr`` in every apnlab module that holds it."""
        orig = getattr(module, attr)
        traced = self._wrap(name, orig, counters)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("apnlab") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str, counters=None,
                      only_if=None):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(name, orig, counters, only_if))

    def install(self) -> None:
        from apnlab import analysis, bitlinalg, cli, families, gf2n, invariants, vbf

        for attr in _GF2N_VEC:
            self._patch_method(gf2n.Field, attr, f"gf2n.{attr}",
                               lambda a, r: {"elems": int(r.size)})
        # Field._tables builds the exp/log tables on first use and returns the
        # cached pair afterwards; only the builds are spans.
        self._patch_method(gf2n.Field, "_tables", "gf2n.tables",
                           only_if=lambda a: a[0]._exp is None)
        for cls in (vbf.UnivariatePoly, vbf.LinearizedPoly, vbf.BivariateFunc):
            self._patch_method(cls, "to_table", f"vbf.{cls.__name__}.to_table")
        for attr in ("to_table", "bivariate_to_table"):
            self._patch_function(vbf, attr, f"vbf.{attr}")
        for attr in ("build_from_descriptor", "make_known", "make_new_bivariate",
                     "make_new_trinomial", "representatives"):
            self._patch_function(families, attr, f"families.{attr}")
        self._patch_function(analysis, "ddt", "analysis.ddt", _ddt)
        self._patch_function(analysis, "is_apn", "analysis.is_apn")
        self._patch_function(analysis, "is_apn_quadratic",
                             "analysis.is_apn_quadratic")
        self._patch_function(analysis, "sweep_key_lemma",
                             "analysis.sweep_key_lemma")
        self._patch_function(analysis, "verify_resultant_identity",
                             "analysis.resultant", _resultant)
        self._patch_method(bitlinalg.GF2Basis, "absorb", "bitlinalg.absorb",
                           _absorb)
        self._patch_function(bitlinalg, "xor_permute_columns",
                             "bitlinalg.xor_permute", _xor_permute)
        self._patch_function(invariants, "gamma_rank", "invariants.gamma_rank")
        self._patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, counters in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, counters]) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _group(name: str) -> str:
    """Spans nested in a span of the same group are not counted again.

    Table builds run inside the vec calls that first need them, so they form
    a group of their own.
    """
    return name if name == "gf2n.tables" else _layer(name)


def layer_metrics(spans: list[list], round_s: float) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics (zero where a layer is unused)."""
    child_s = [0.0] * len(spans)
    outermost = [True] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    for i, (name, _, _, parent, _) in enumerate(spans):
        group = _group(name)
        p = parent
        while p >= 0:
            if _group(spans[p][0]) == group:
                outermost[i] = False
                break
            p = spans[p][3]

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    for i, (name, t0, t1, _, counters) in enumerate(spans):
        if not outermost[i]:
            continue
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_s[i])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counters or {}).items():
            if key != "mask":
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    absorb_s = t("bitlinalg.absorb")
    rows = sums.get("bitlinalg.absorb.rows", 0)
    pivots = sums.get("bitlinalg.absorb.pivots", 0)
    basis_bytes = max(
        (s[4]["basis_bytes"] for s in spans
         if s[0] == "bitlinalg.absorb" and s[4]), default=0)
    xor_s = t("bitlinalg.xor_permute")
    vec_names = [f"gf2n.{a}" for a in _GF2N_VEC]
    vec_s = sum(t(n) for n in vec_names)
    vec_elems = sum(sums.get(f"{n}.elems", 0) for n in vec_names)
    rounds, round_max = _translate_rounds(spans)
    cli_s = t("cli.main")
    cli_children = sum(
        s[2] - s[1] for s in spans
        if s[3] >= 0 and spans[s[3]][0] == "cli.main"
        and _layer(s[0]) in ("invariants", "analysis"))
    key_s = t("analysis.sweep_key_lemma")
    res_s = t("analysis.resultant")
    ddt_s = t("analysis.ddt")
    metrics = {
        "bitlinalg.absorb_s": absorb_s,
        "bitlinalg.absorb_rows": rows,
        "bitlinalg.absorb_pivots": pivots,
        "bitlinalg.pivot_yield": rate(pivots, rows),
        "bitlinalg.absorb_rows_per_s": rate(rows, absorb_s),
        "bitlinalg.basis_mib": basis_bytes / 2**20,
        "bitlinalg.xor_permute_s": xor_s,
        "bitlinalg.xor_permute_gb_per_s": rate(
            sums.get("bitlinalg.xor_permute.bytes", 0) / 1e9, xor_s),
        "invariants.gamma_rank_s": t("invariants.gamma_rank"),
        "invariants.self_s": self_s.get("invariants.gamma_rank", 0.0),
        "invariants.rounds": rounds,
        "invariants.round_s_max": round_max,
        "gf2n.vec_s": vec_s,
        "gf2n.vec_calls": sum(calls.get(n, 0) for n in vec_names),
        "gf2n.vec_elems_per_s": rate(vec_elems, vec_s),
        "gf2n.tables_s": t("gf2n.tables"),
        "vbf.to_table_s": sum(v for k, v in total.items() if _layer(k) == "vbf"),
        "families.build_s": sum(
            v for k, v in total.items() if _layer(k) == "families"),
        "analysis.ddt_s": ddt_s,
        "analysis.ddt_pairs_per_s": rate(
            sums.get("analysis.ddt.pairs", 0), ddt_s),
        "analysis.is_apn_s": t("analysis.is_apn"),
        "analysis.is_apn_quadratic_s": t("analysis.is_apn_quadratic"),
        "analysis.sweep_key_lemma_s": key_s,
        "analysis.sweep_key_lemma_self_s": self_s.get(
            "analysis.sweep_key_lemma", 0.0),
        "analysis.key_lemma_tuples_per_s": rate(
            calls.get("analysis.sweep_key_lemma", 0), key_s),
        "analysis.resultant_s": res_s,
        "analysis.resultant_self_s": self_s.get("analysis.resultant", 0.0),
        "analysis.resultant_points_per_s": rate(
            sums.get("analysis.resultant.points", 0), res_s),
        "cli.overhead_s": cli_s - cli_children,
        "trace.round_s": round_s,
        "trace.spans": len(spans),
    }
    assert set(metrics) == set(PER_LAYER)
    return metrics


def _translate_rounds(spans: list[list]) -> tuple[int, float]:
    """Count translate rounds and the longest one.

    A round is the run of absorb calls, inside one ``gamma_rank`` span, that
    follow translates by one mask: from the first such ``xor_permute`` start
    to the last absorb end before the mask changes.
    """
    rounds = 0
    longest = 0.0
    current: dict[int, tuple[int, float, float]] = {}  # gamma span -> round
    for name, t0, t1, parent, counters in spans:
        if parent < 0 or spans[parent][0] != "invariants.gamma_rank":
            continue
        if name == "bitlinalg.xor_permute" and counters:
            mask = counters["mask"]
            cur = current.get(parent)
            if cur is None or cur[0] != mask:
                rounds += 1
                current[parent] = (mask, t0, t1)
            else:
                current[parent] = (mask, cur[1], t1)
        elif name == "bitlinalg.absorb" and parent in current:
            mask, start, _ = current[parent]
            current[parent] = (mask, start, t1)
        else:
            continue
        mask, start, end = current[parent]
        longest = max(longest, end - start)
    return rounds, longest
