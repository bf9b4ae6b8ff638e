"""Command-line front end.

Exit codes: 0 = success / verification passed; 1 = a verification or
classification came out negative (report still printed); 2 = input or
usage error (a StructureError); 3 = an unexpected internal error, such as
an InvariantViolation.  Each cmd_* returns (text, exit code) and main
writes the text, once, to stdout or to --output.
With --timings, main also writes the seconds of each phase to stderr.
"""

import argparse
import io
import json
import sys
import time
from contextlib import contextmanager

from . import files
from .classify import BooleanAlgebra, check_pseudo_kleene, is_distributive, recognize_boolean
from .constructions import (
    ExtensionMode,
    _lemma2,
    chain_residuation,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    structural_equal,
)
from .errors import StructureError
from .fixtures import BUILTINS
from .involution import InvolutedPoset, enumerate_antitone_involutions
from .miner import find_residuations, find_residuations_naive
from .render import export_dot, render_tables
from .report import VerificationReport
from .residuation import (
    ResiduatedStructure,
    check_integrality,
    check_lemma1,
    verify_residuated,
)

_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r"})  # a label may hold a line break


@contextmanager
def _timed(seconds, name):
    """Add the seconds the block takes to seconds[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] += time.perf_counter() - start


def _load(path, seconds) -> files.Bundle:
    with _timed(seconds, "load"):
        if path.startswith("builtin:"):
            name = path.split(":", 1)[1]
            if name not in BUILTINS:
                raise StructureError(
                    f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}"
                )
            ip = BUILTINS[name]()
            return files.Bundle(ip.poset, ip)
        if path == "-":
            return files.load_structure(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return files.load_structure(fh)


def _need_structure(bundle) -> ResiduatedStructure:
    if bundle.structure is None:
        raise StructureError("this command needs a full residuated structure (unit/odot/arrow)")
    return bundle.structure


def _boolean(bundle) -> BooleanAlgebra | None:
    """The bundle's Boolean algebra: a cube builtin is one already, a file is recognised."""
    if isinstance(bundle.involuted, BooleanAlgebra):
        return bundle.involuted
    return recognize_boolean(bundle.poset)


def _need_involuted(bundle) -> InvolutedPoset:
    if bundle.involuted is None:
        raise StructureError("this command needs an involution")
    return bundle.involuted


def _render(bundle, fmt, seconds) -> str:
    """The text of show (a Bundle) and extend (an ExtensionResult): one structure, one text."""
    with _timed(seconds, "render"):
        if fmt == "dot":
            return export_dot(bundle.poset, bundle.involution)
        if fmt == "json":
            buf = io.StringIO()
            files.dump(files.to_doc(bundle), buf)
            return buf.getvalue()
        return render_tables(_need_structure(bundle), fmt)


def cmd_verify(args):
    s = _need_structure(_load(args.input, args.seconds))
    checks = verify_residuated(s).checks
    if s.poset.bounds()[0] is not None:
        checks += check_lemma1(s).checks
    report = VerificationReport(checks + check_integrality(s).checks)
    return str(report) + "\n", 0 if report.overall else 1


def cmd_involutions(args):
    bundle = _load(args.input, args.seconds)
    found = enumerate_antitone_involutions(bundle.poset)
    lines = [str(inv) for inv in found]
    lines.append(f"count: {len(found)}")
    return "\n".join(lines) + "\n", 0


def cmd_extend(args):
    bundle = None if args.theorem == "cor1" else _load(args.input, args.seconds)
    if args.theorem == "cor1":
        result = chain_residuation(args.n)
    elif args.theorem == "thm1":
        result = extend_theorem1(_need_involuted(bundle), ExtensionMode(args.mode))
    elif args.theorem == "thm2":
        result = extend_theorem2(_need_involuted(bundle), args.n)
    elif args.theorem == "thm3":
        result = extend_theorem3(bundle.poset, args.n, args.k)
    else:  # lemma2 or thm5, the choices argparse leaves
        B = _boolean(bundle)
        if B is None:
            raise StructureError("input poset is not a Boolean algebra")
        result = _lemma2(B) if args.theorem == "lemma2" else extend_boolean_theorem5(B, args.n)
    return _render(result, args.format, args.seconds), 0


def cmd_classify(args):
    bundle = _load(args.input, args.seconds)
    p = bundle.poset
    verdicts = {}
    lines = []
    verdicts["lattice"] = p.is_lattice()
    lines.append(f"lattice: {verdicts['lattice']}")
    if verdicts["lattice"]:
        dist, witness = is_distributive(p)
        verdicts["distributive"] = dist
        lines.append(
            f"distributive: {dist}" + (f" witness={witness}" if witness else "")
        )
        if bundle.involution is not None:
            kv = check_pseudo_kleene(p, bundle.involution)
            verdicts["pseudo_kleene"] = kv.pseudo_kleene
            verdicts["kleene"] = kv.kleene
            lines.extend(kv.report.lines())
            lines.append(f"pseudo-kleene: {kv.pseudo_kleene}")
            lines.append(f"kleene: {kv.kleene}")
        verdicts["boolean"] = _boolean(bundle) is not None
        lines.append(f"boolean: {verdicts['boolean']}")
    text = json.dumps(verdicts, indent=2) if args.json else "\n".join(lines)
    return text + "\n", 0 if all(verdicts.values()) else 1


def cmd_mine(args):
    bundle = _load(args.input, args.seconds)
    ip = _need_involuted(bundle)
    search = find_residuations_naive if args.naive else find_residuations
    outcome = search(ip, args.require_negation, args.limit)
    found = f"satisfiable: {len(outcome.structures)} structure(s) found"
    lines = [found if outcome.satisfiable else "unsatisfiable"]
    if outcome.truncated:
        lines.append(f"search stopped at --limit {args.limit}")
    for i, s in enumerate(outcome.structures, 1):
        lines.append(f"--- structure {i} ---")
        with _timed(args.seconds, "render"):
            lines.append(render_tables(s, "text").rstrip("\n"))
    stats = outcome.stats.as_dict()
    if args.stats_json:
        lines.append(json.dumps({**stats, "truncated": outcome.truncated}, indent=2))
    else:
        lines.append(f"nodes explored: {stats['nodes']}")
        for rule, count in stats["prunes"].items():
            lines.append(f"prunes[{rule}]: {count}")
    return "\n".join(lines) + "\n", 0 if outcome.satisfiable else 1


def cmd_show(args):
    return _render(_load(args.input, args.seconds), args.format, args.seconds), 0


def cmd_diff(args):
    a = _need_structure(_load(args.first, args.seconds))
    b = _need_structure(_load(args.second, args.seconds))
    same = structural_equal(a, b)
    return ("structurally equal" if same else "structurally different") + "\n", 0 if same else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resposet",
        description="Finite ordered algebraic structures: residuated extensions of "
        "posets with antitone involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the options of every command
    shared.add_argument("--output", "-o", default="-", help="output file (default stdout)")
    shared.add_argument(
        "--timings",
        action="store_true",
        help="write the seconds spent in load, run, render and write to stderr, as JSON",
    )

    def command(name, help):
        return sub.add_parser(name, help=help, parents=[shared])

    def common(p, required=True):
        p.add_argument(
            "--input", "-i", required=required, help="structure file, '-' or builtin:<name>"
        )

    p = command("verify", "check the residuated-poset axioms")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = command("involutions", "enumerate antitone involutions")
    common(p)
    p.set_defaults(func=cmd_involutions)

    p = command("extend", "run one of the extension constructions")
    p.add_argument("theorem", choices=["thm1", "thm2", "thm3", "cor1", "lemma2", "thm5"])
    common(p, required=False)  # cor1 takes no input
    p.add_argument(
        "--mode",
        choices=[m.value for m in ExtensionMode],
        default=ExtensionMode.ADD_FOUR.value,
        help="thm1 only: how to treat the four chain elements",
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--format", choices=["json", "text", "csv", "dot"], default="json")
    p.set_defaults(func=cmd_extend)

    p = command("classify", "lattice/distributive/Kleene/Boolean verdicts")
    common(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_classify)

    p = command("mine", "search for residuated structures")
    common(p)
    neg = p.add_mutually_exclusive_group()
    neg.add_argument("--require-negation", dest="require_negation", action="store_true", default=True)
    neg.add_argument("--no-require-negation", dest="require_negation", action="store_false")
    p.add_argument("--limit", type=int, default=16)
    p.add_argument("--naive", action="store_true", help="oracle mode, small carriers only")
    p.add_argument("--stats-json", action="store_true")
    p.set_defaults(func=cmd_mine)

    p = command("show", "render a structure")
    common(p)
    p.add_argument("--format", choices=["text", "csv", "json", "dot"], default="text")
    p.set_defaults(func=cmd_show)

    p = command("diff", "relabeling-aware structural comparison")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_diff)

    return parser


def _validate(args):
    """Presence checks only; each numeric bound is stated where it is enforced."""
    if args.command != "extend":
        return
    if args.theorem in ("cor1", "thm2", "thm3", "thm5") and args.n is None:
        raise StructureError(f"{args.theorem} needs --n")
    if args.theorem != "cor1" and not args.input:
        raise StructureError(f"{args.theorem} needs --input")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seconds = dict.fromkeys(("load", "run", "render", "write"), 0.0)
    message = None
    try:
        _validate(args)
        with _timed(args.seconds, "run"):
            text, code = args.func(args)
        with _timed(args.seconds, "write"):
            if args.output and args.output != "-":
                with open(args.output, "w", encoding="utf-8") as out:
                    out.write(text)
            else:
                sys.stdout.write(text)
    except (StructureError, OSError) as exc:
        message, code = str(exc), 2
    except Exception as exc:  # a bug; exit 1 stays the code of a negative verdict
        message, code = f"internal error ({type(exc).__name__}): {exc}", 3
    if message is not None:
        print(f"error: {message}".translate(_ONE_LINE), file=sys.stderr)
    if args.timings:
        args.seconds["run"] -= args.seconds["load"] + args.seconds["render"]  # both nest in run
        print(json.dumps(args.seconds), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
