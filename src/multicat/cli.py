"""Command-line surface: validate, free, stats, diff.

Exit codes: 0 success, 1 axiom violations or bound/budget failures,
2 I/O, parse or usage errors.  ``MULTICAT_BUDGET`` caps search and
saturation work for the free constructions; it must be an integer >= 0.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import json
import os
import sys
from collections import Counter

from .core import SOURCE, TARGET, MultipleSet, validate_multiple_set
from .errors import MulticatError, ParseError
from .magma import MagmaStructure, validate_magma, validate_reflexive_magma
from .reflexive import ReflexiveStructure, free_reflexive, validate_reflexive
from .reversors import validate_reversors
from .serialize import dump, from_document, loads, to_document
from .strictcat import free_strict, quotient_to_category, validate_strict
from .stretching import Stretching, free_weak, validate_stretching
from .terms import as_budget


def _read_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return loads(text)


def _load(path: str):
    return from_document(_read_document(path))


def _validate_any(obj, kind: str, strict: bool):
    """The report of ``kind``'s validator, looked up here at call time."""
    if kind == "magma" and (strict or obj.refl is not None):
        kind = "strict" if strict else "reflexive-magma"
    return {"multiple-set": validate_multiple_set, "reflexive": validate_reflexive,
            "magma": validate_magma, "reflexive-magma": validate_reflexive_magma,
            "strict": validate_strict, "reversors": validate_reversors,
            "stretching": validate_stretching}[kind](obj)


def cmd_validate(args) -> int:
    doc = _read_document(args.path)
    report = _validate_any(from_document(doc), doc["kind"], args.strict)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    elif report.ok:
        print("ok")
    else:
        print(report.render())
    return 0 if report.ok else 1


def _print_counts(counts: dict, label: str):
    for c in sorted(counts, key=lambda c: (len(c), c)):
        print(f"{label} color={list(c)} count={counts[c]}")


def _print_stage_log(log: list[dict]):
    for i, entry in enumerate(log, start=1):
        print(f"stage {i}: " + " ".join(f"{k}={v}" for k, v in sorted(entry.items())))


def cmd_free(args) -> int:
    try:
        budget = as_budget(args.budget)
    except ValueError as exc:  # a MULTICAT_BUDGET that is not a count
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        # refused before a construction that may run long
        parent = os.path.dirname(args.out) or "."
        if not os.path.isdir(parent):  # missing, or a regular file
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            code = errno.EISDIR if os.path.isdir(args.out) else 0
        if code:
            print(f"error: cannot write {args.out}: {os.strerror(code)}", file=sys.stderr)
            return 2
    obj = _load(args.path)
    if isinstance(obj, (MagmaStructure, ReflexiveStructure)):
        obj = obj.base
    elif not isinstance(obj, MultipleSet):
        raise ParseError("free constructions take a multiple-set document")
    dim = args.dim if args.dim is not None else obj.dim_bound

    if args.mode == "reflexive":
        out_obj = free_reflexive(obj, dim, budget=budget)
        counts = {c: len(out_obj.base.cells_at(c)) for c in out_obj.base.colors()}
        _print_counts(counts, "cells")
    elif args.mode == "strict":
        pres = free_strict(obj, dim, args.size, budget=budget)
        _print_counts(pres.class_counts(), "classes")
        out_obj = quotient_to_category(pres)
    else:
        fw = free_weak(
            obj,
            m=args.m,
            dim_bound=dim,
            size_bound=args.size,
            stages=args.stages,
            budget=budget,
        )
        base = fw.stretching.magma.base
        counts = {c: len(base.cells_at(c)) for c in base.colors()}
        _print_counts(counts, "cells")
        brackets = {}
        for (c, r), tab in fw.stretching.brackets.items():
            key = tuple(sorted(set(c) | {r}))
            brackets[key] = brackets.get(key, 0) + len(tab)
        _print_counts(brackets, "brackets")
        _print_stage_log(fw.stage_log)
        out_obj = fw.stretching

    if args.out:
        try:
            dump(out_obj, args.out)
        except (OSError, UnicodeEncodeError) as exc:
            # an OSError's strerror, or the encoder's message for a lone surrogate
            reason = getattr(exc, "strerror", None) or exc
            print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
            return 2
    return 0


def cmd_stats(args) -> int:
    obj = _load(args.path)
    base = getattr(obj, "base", obj)  # a stretching's is M's
    stats = {
        "cells": {str(list(c)): len(base.cells_at(c)) for c in base.colors()},
        "composable_pairs": {},
        "brackets": {},
    }
    for c in base.colors():
        for d in c:
            # (a, b) composes when s_d(a) == t_d(b); counted where every cell has both faces
            stab, ttab = base.table(SOURCE, c, d), base.table(TARGET, c, d)
            xs = base.cells_at(c)
            if all(x in stab and x in ttab for x in xs):
                targets = Counter(map(ttab.__getitem__, xs))
                stats["composable_pairs"][f"{list(c)}/{d}"] = sum(targets[stab[x]] for x in xs)
    if isinstance(obj, Stretching):
        for (c, r), tab in sorted(obj.brackets.items(), key=lambda kv: (len(kv[0][0]), kv[0])):
            stats["brackets"][f"{list(c)}+{r}"] = len(tab)
        if obj.stage_log:
            stats["stage_log"] = obj.stage_log
    if args.format == "json":
        print(json.dumps(stats, sort_keys=True))
        return 0
    for key, val in stats["cells"].items():
        print(f"cells color={key} count={val}")
    for key, val in stats["composable_pairs"].items():
        print(f"pairs {key} count={val}")
    for key, val in stats["brackets"].items():
        print(f"brackets {key} count={val}")
    _print_stage_log(stats.get("stage_log", []))
    return 0


def _flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for k in sorted(doc):
            out.update(_flatten(doc[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(doc, list):
        # record lists: compare as sets of rendered rows
        out[prefix] = {json.dumps(item, sort_keys=True) for item in doc}
    else:
        out[prefix] = doc
    return out


def cmd_diff(args) -> int:
    flat_a = _flatten(to_document(_load(args.path_a)))
    flat_b = _flatten(to_document(_load(args.path_b)))
    diffs = []
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key), flat_b.get(key)
        if va == vb:
            continue
        if isinstance(va, set) or isinstance(vb, set):
            va = va or set()
            vb = vb or set()
            for row in sorted(va - vb):
                diffs.append(f"- {key}: {row}")
            for row in sorted(vb - va):
                diffs.append(f"+ {key}: {row}")
        else:
            diffs.append(f"! {key}: {va!r} != {vb!r}")
    if args.format == "json":
        print(json.dumps({"equal": not diffs, "diffs": diffs}))
    else:
        for line in diffs:
            print(line)
        if not diffs:
            print("identical")
    return 0 if not diffs else 1


def _natural(text: str) -> int:
    """An option value that must be an integer >= 0, as in the documents."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multicat")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a structure document")
    p_val.add_argument("path")
    p_val.add_argument("--strict", action="store_true",
                       help="check the strict-category axioms on a magma document")
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.set_defaults(func=cmd_validate)

    p_free = sub.add_parser("free", help="run a free construction")
    p_free.add_argument("mode", choices=("reflexive", "strict", "weak"))
    p_free.add_argument("path")
    p_free.add_argument("--dim", type=_natural, default=None, help="dimension bound N")
    p_free.add_argument("--size", type=_natural, default=10, help="term size bound")
    p_free.add_argument("--stages", type=_natural, default=1)
    p_free.add_argument("--m", type=_natural, default=None, help="reversibility cutoff")
    p_free.add_argument("--budget", type=_natural, default=None)
    p_free.add_argument("--out", default=None, help="write the result document here")
    p_free.set_defaults(func=cmd_free)

    p_stats = sub.add_parser("stats", help="summarize a structure document")
    p_stats.add_argument("path")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.set_defaults(func=cmd_stats)

    p_diff = sub.add_parser("diff", help="structural diff of two documents")
    p_diff.add_argument("path_a")
    p_diff.add_argument("path_b")
    p_diff.add_argument("--format", choices=("text", "json"), default="text")
    p_diff.set_defaults(func=cmd_diff)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a command builds no reference cycles (tests/test_cli.py checks each
    # kind), so the cyclic collector would only re-walk its structures
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MulticatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
