"""Command-line front end.

Subcommands construct family instances from JSON descriptors, run exact
APN/DDT checks, compute graph-development ranks, reproduce the published
rank tables, search trinomial parameters, drive the lemma verifiers, and
export code matrices for external computer-algebra tools.

Output contract: one deterministic JSON document on standard output (a
top-level ``schema`` field versions each payload; no timestamps), timing
and progress on standard error, exit code 0 on success, 2 on a violated
precondition (the message names the condition), 3 on a memory/size limit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time

import numpy as np

from .errors import MemoryBudgetError, PreconditionError
from .gf2n import field_new
from .vbf import read_lut
from .analysis import (
    ddt,
    is_apn,
    sweep_cubic_classifier,
    sweep_key_lemmas,
    verify_resultant_identity,
)
from .families import (
    TABLE_RANKS,
    _searched_mus,
    build_from_descriptor,
    descriptor_for,
    representatives,
)
from .invariants import export_code, gamma_rank

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_PRECONDITION = 2
_EXIT_RESOURCE = 3


def _emit(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, nested at ``indent``.

    With ``indent`` set, :mod:`json` encodes in pure Python, which spent 90%
    of a long ``search`` listing.  Here dicts and lists are laid out in
    Python and everything else is encoded by json's C encoder, a list of
    numbers, bools and nulls in one call whose ", " separators are then
    broken into lines.  A dict with a non-string key is left to
    :mod:`json` entire.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        if not all(isinstance(k, str) for k in value):
            return json.dumps(value, indent=2).replace("\n", "\n" + indent)
        body = sep.join(f"{json.dumps(k)}: {_dumps(v, inner)}"
                        for k, v in value.items())
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        if not isinstance(value[0], (dict, list, tuple)):
            text = json.dumps(value)
            if '"' not in text and "{" not in text and "[" not in text[1:]:
                # no strings or containers: each ", " separates two entries
                return f"[\n{inner}{text[1:-1].replace(', ', sep)}\n{indent}]"
        body = sep.join(_dumps(v, inner) for v in value)
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(value)


def _stderr(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def _read_file(path: str) -> str:
    """Text of ``path``; an unreadable file is a violated precondition."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None


def _read_descriptor(arg: str) -> str:
    """Inline descriptor text, or ``@path`` to read it from a file."""
    return _read_file(arg[1:]) if arg.startswith("@") else arg


def _cmd_check(args) -> dict:
    inst = build_from_descriptor(_read_descriptor(args.family))
    apn = is_apn(inst.table)
    return {
        "schema": "apnlab/check/v2",
        "family": inst.id.tag,
        "descriptor": descriptor_for(inst),
        "n": inst.field.n,
        "apn": apn,
        "delta": 2 if apn else ddt(inst.table).delta,
    }


def _cmd_ddt(args) -> dict:
    if args.lut:
        table = read_lut(io.StringIO(_read_file(args.lut)))
        source = {"lut": args.lut}
    else:
        inst = build_from_descriptor(_read_descriptor(args.family))
        table = inst.table
        source = {"family": descriptor_for(inst)}
    summary = ddt(table)
    return {"schema": "apnlab/ddt/v1", **source, **summary.to_json_dict()}


def _cmd_gamma_rank(args) -> dict:
    inst = build_from_descriptor(_read_descriptor(args.family))
    report = gamma_rank(inst.table, family=inst.id.tag)
    return {"schema": "apnlab/gamma-rank/v1", **report.to_json_dict()}


def _parse_rows(spec: str | None, count: int) -> list[int]:
    if not spec:
        return list(range(1, count + 1))
    rows = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k = int(part)
        except ValueError:
            raise PreconditionError(
                f"row index is not an integer: {part!r}") from None
        if not 1 <= k <= count:
            raise PreconditionError(f"row index out of range 1..{count}: {k}")
        if k in rows:
            raise PreconditionError(f"row {k} selected twice")
        rows.append(k)
    if not rows:
        raise PreconditionError("empty --rows selection")
    return rows


def _cmd_table(args) -> dict:
    which = args.paper_table
    ranks = TABLE_RANKS[which]
    n = 8 if which == 4 else 9
    selected = _parse_rows(args.rows, len(ranks))
    reps = representatives(n)

    rows_payload = []
    t0 = time.perf_counter()
    for k in selected:
        inst = reps[k - 1]
        rep = gamma_rank(inst.table, family=inst.label)
        _stderr(
            f"row {k}: gamma_rank={rep.gamma_rank} "
            f"({rep.elapsed:.1f}s, total {time.perf_counter() - t0:.0f}s)"
        )
        rows_payload.append({
            "row": k,
            "function": inst.label,
            "gamma_rank": rep.gamma_rank,
            "paper_value": ranks[k - 1],
            "match": rep.gamma_rank == ranks[k - 1],
        })
    return {
        "schema": "apnlab/table/v1",
        "paper_table": which,
        "n": n,
        "modulus": field_new(n).modulus,
        "rows": rows_payload,
        "all_match": all(r["match"] for r in rows_payload),
    }


def _cmd_search(args) -> dict:
    found = _searched_mus(args.m)
    _, log = field_new(3 * args.m)._tables()
    return {
        "schema": "apnlab/search/v1",
        "m": args.m,
        "n": 3 * args.m,
        "s_range": "1 <= s < 3m, gcd(s,m)=1",
        "count": sum(mus.size for _, mus in found),
        "params": [{"s": s, "mu_exponents": np.sort(log[mus]).tolist()}
                   for s, mus in found],
    }


def _cmd_verify(args) -> dict:
    if args.s is not None and args.lemma != "key":
        raise PreconditionError("condition violated: --s only with --lemma key")
    if args.lemma == "cubic":
        cases, mismatches = sweep_cubic_classifier(args.m)
        return {
            "schema": "apnlab/verify/v1",
            "lemma": "cubic",
            "m": args.m,
            "cases": cases,
            "mismatches": mismatches,
            "ok": not mismatches,
        }
    if args.lemma == "resultant":
        # the factored identity is the bivariate family's lemma, which
        # needs gcd(3,m)=1 (its side facts fail when 3 | m)
        if math.gcd(3, args.m) != 1:
            raise PreconditionError("condition violated: gcd(3,m)=1")
        report = verify_resultant_identity(args.m)
        return {
            "schema": "apnlab/verify/v1",
            "lemma": "resultant",
            "ok": report.all_ok,
            **report.to_json_dict(),
        }
    # key: every (s, mu) pair (optionally pinned to one s) x every subfield v
    sweeps = sweep_key_lemmas(args.m, args.s)
    return {
        "schema": "apnlab/verify/v1",
        "lemma": "key",
        "m": args.m,
        "s": args.s,
        "tuples_checked": len(sweeps),
        "points_per_tuple": (1 << (3 * args.m)) - 1,
        "failures": [sweep.to_json_dict() for sweep in sweeps
                     if not sweep.all_pass][:16],
        "ok": all(sweep.all_pass for sweep in sweeps),
    }


def _cmd_export_code(args) -> dict:
    inst = build_from_descriptor(_read_descriptor(args.family))
    lines = export_code(inst.table, format=args.format)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise PreconditionError(f"cannot write {args.out}: {exc}") from None
    n = inst.field.n
    return {
        "schema": "apnlab/export-code/v1",
        "family": inst.id.tag,
        "descriptor": descriptor_for(inst),
        "format": args.format,
        "out": args.out,
        "rows": 2 * n + 1,
        "cols": 1 << n,
    }


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="apnlab",
        description="Exact construction and analysis of APN functions "
                    "over GF(2^n).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="test a family instance for APNness")
    c.add_argument("--family", required=True,
                   help="JSON descriptor, inline or @file")
    c.set_defaults(fn=_cmd_check)

    d = sub.add_parser("ddt", help="full difference-distribution summary")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--lut", help="lookup-table file")
    src.add_argument("--family", help="JSON descriptor, inline or @file")
    d.set_defaults(fn=_cmd_ddt)

    g = sub.add_parser("gamma-rank",
                       help="GF(2) rank of the graph-development matrix")
    g.add_argument("--family", required=True)
    g.set_defaults(fn=_cmd_gamma_rank)

    t = sub.add_parser("table", help="reproduce a published rank table")
    t.add_argument("--paper-table", type=int, choices=(4, 5), required=True)
    t.add_argument("--rows", help="comma-separated 1-based subset")
    t.set_defaults(fn=_cmd_table)

    s = sub.add_parser("search", help="search valid trinomial parameters")
    s.add_argument("--trinomial", action="store_true", required=True)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(fn=_cmd_search)

    v = sub.add_parser("verify", help="run an identity/classifier verifier")
    v.add_argument("--lemma", choices=("cubic", "resultant", "key"),
                   required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--s", type=int, default=None,
                   help="pin the Frobenius shift (key verifier only)")
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("export-code",
                       help="write the code matrix for external tools")
    e.add_argument("--family", required=True)
    e.add_argument("--format", choices=("plain-bits", "script"),
                   required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_export_code)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        payload = args.fn(args)
    except PreconditionError as exc:
        _emit({
            "schema": "apnlab/error/v1",
            "status": "precondition-failed",
            "error": str(exc),
        })
        _stderr(f"precondition failed: {exc}")
        return _EXIT_PRECONDITION
    except MemoryBudgetError as exc:
        _emit({
            "schema": "apnlab/error/v1",
            "status": "resource-limit",
            "error": str(exc),
        })
        _stderr(f"resource limit: {exc}")
        return _EXIT_RESOURCE
    _emit(payload)
    _stderr(f"elapsed_seconds={time.perf_counter() - t0:.2f}")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
