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
from typing import Any, Callable, NamedTuple

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


class _Arg(NamedTuple):
    """One argument of a command: a positional, or an option where its name
    starts with ``--``; a switch is an option that takes no value."""
    name: str
    type: Callable | None = None
    choices: tuple | None = None
    default: Any = None
    help: str | None = None
    switch: bool = False


class _Command(NamedTuple):
    func: Callable
    help: str
    positionals: tuple[_Arg, ...]
    options: dict[str, _Arg]  # by option string


def _options(*args: _Arg) -> dict[str, _Arg]:
    return {a.name: a for a in args}


_FORMAT = _Arg("--format", choices=("text", "json"), default="text")

# the grammar, which build_parser gives argparse and _read_argv reads itself
COMMANDS = {
    "validate": _Command(cmd_validate, "validate a structure document", (_Arg("path"),), _options(
        _Arg("--strict", default=False, switch=True,
             help="check the strict-category axioms on a magma document"),
        _FORMAT)),
    "free": _Command(cmd_free, "run a free construction", (
        _Arg("mode", choices=("reflexive", "strict", "weak")), _Arg("path")), _options(
        _Arg("--dim", _natural, help="dimension bound N"),
        _Arg("--size", _natural, default=10, help="term size bound"),
        _Arg("--stages", _natural, default=1),
        _Arg("--m", _natural, help="reversibility cutoff"),
        _Arg("--budget", _natural),
        _Arg("--out", help="write the result document here"))),
    "stats": _Command(cmd_stats, "summarize a structure document", (_Arg("path"),),
                      _options(_FORMAT)),
    "diff": _Command(cmd_diff, "structural diff of two documents",
                     (_Arg("path_a"), _Arg("path_b")), _options(_FORMAT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multicat")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for a in command.positionals:
            p.add_argument(a.name, choices=a.choices)
        for a in command.options.values():
            if a.switch:
                p.add_argument(a.name, action="store_true", default=a.default, help=a.help)
            else:
                p.add_argument(a.name, type=a.type, choices=a.choices, default=a.default,
                               help=a.help)
        p.set_defaults(func=command.func)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """What ``_parser().parse_args(argv)`` returns, for a plain list: a
    command, then its positionals in order and its options by their exact
    option strings, each option's value a word that does not start with
    ``-``, and every value of its type and among its choices.  None for any
    other list, which argparse reads: help, a usage error, ``--opt=value``,
    an abbreviation, ``--`` or a value that starts with ``-``."""
    if not argv or (command := COMMANDS.get(argv[0])) is None:
        return None
    options = command.options
    values = {name[2:]: a.default for name, a in options.items()}
    positionals = iter(command.positionals)
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if (arg := next(positionals, None)) is None:
                return None
            name = arg.name
        elif (arg := options.get(word)) is None:
            return None
        elif arg.switch:
            values[word[2:]] = True
            continue
        else:
            name, word = word[2:], next(words, "-")
            if word[:1] == "-":
                return None
        try:
            value = word if arg.type is None else arg.type(word)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[name] = value
    if next(positionals, None) is not None:
        return None
    return argparse.Namespace(command=argv[0], **values, func=command.func)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if (args := _read_argv(argv)) is None:
        args = _parser().parse_args(argv)  # help, and every usage message
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
