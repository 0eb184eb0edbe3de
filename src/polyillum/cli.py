"""Command-line interface.

Exit codes: 0 = success and the checked property holds; 1 = the property
fails or verification fails (a certificate is printed); 2 = input or
usage error; 3 = internal invariant violation (falsification alarm) or
internal error, any other exception, printed as {"error": "<Type>: <msg>"}.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .classify import classify_normal_set
from .errors import (InputError, InternalInvariantError,
                     NotStronglyMonotypicError)
from .fan import enumerate_primitive_bases, normal_fan, verify_fan_uniqueness
from .formats import (certificate_to_doc, dump, illumination_to_doc,
                      parse_directions, parse_polytope, polytope_to_doc,
                      reports_to_doc, skeleton_to_doc, vector_to_strings)
from .generators import FAMILIES, generate, randomize_offsets
from .illuminate import build_illumination_set, verify_directions, verify_illumination
from .oracle import min_illumination_number
from .skeleton import extract_skeleton

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}")


def _load_polytope(path: str):
    return parse_polytope(_read(path))


def _mss_cert_doc(cert):
    v1, v2, point = cert
    return {
        "subset_1": certificate_to_doc(v1),
        "subset_2": certificate_to_doc(v2),
        "common_point": vector_to_strings(point),
    }


def _cmd_classify(args):
    v = classify_normal_set(_load_polytope(args.file).normal_set)
    payload = {"strongly_monotypic": v.strongly_monotypic, "monotypic": v.monotypic}
    certificates = {}
    if v.strong_certificate is not None:
        certificates["conical_subset"] = certificate_to_doc(v.strong_certificate)
    if v.mono_certificate is not None:
        certificates["uncaptured_conical_subset"] = certificate_to_doc(v.mono_certificate)
    if v.mss_certificate is not None:
        certificates["intersecting_primitive_subsets"] = _mss_cert_doc(v.mss_certificate)
    if certificates:
        payload["certificates"] = certificates
    ok = v.strongly_monotypic and v.monotypic
    return (EXIT_OK if ok else EXIT_PROPERTY_FAILS), payload


def _cmd_skeleton(args):
    P = _load_polytope(args.file)
    skeleton = extract_skeleton(P.normal_set)
    return EXIT_OK, skeleton_to_doc(skeleton)


def _cmd_illuminate(args):
    P = _load_polytope(args.file)
    ill = build_illumination_set(P)
    payload = illumination_to_doc(P, ill)
    code = EXIT_OK
    if args.verify:
        ok, reports = verify_illumination(P, ill)
        payload["verified"] = ok
        payload["report"] = reports_to_doc(reports)
        if not ok:
            code = EXIT_PROPERTY_FAILS
    return code, payload


def _cmd_verify(args):
    P = _load_polytope(args.file)
    directions, epsilon = parse_directions(_read(args.directions))
    ok, reports = verify_directions(P, directions, epsilon)
    payload = {"verified": ok, "report": reports_to_doc(reports)}
    return (EXIT_OK if ok else EXIT_PROPERTY_FAILS), payload


def _cmd_fan(args):
    P = _load_polytope(args.file)
    cones = normal_fan(P)
    payload = {
        "cones": [
            {"generators": [vector_to_strings(g) for g in c.generators],
             "vertex": vector_to_strings(c.vertex.point)}
            for c in cones
        ],
    }
    code = EXIT_OK
    if args.verify_unique:
        unique = verify_fan_uniqueness(P)
        payload["unique"] = unique
        payload["primitive_basis_count"] = len(enumerate_primitive_bases(P.normal_set))
        if not unique:
            code = EXIT_PROPERTY_FAILS
    return code, payload


def _cmd_oracle(args):
    P = _load_polytope(args.file)
    k, directions = min_illumination_number(P)
    payload = {
        "min_illumination_number": k,
        "directions": [vector_to_strings(v) for v in directions],
    }
    return EXIT_OK, payload


def _cmd_gen(args):
    P = generate(args.family, tuple(args.dims or ()))
    if args.seed is not None:
        P = randomize_offsets(P, args.seed)
    payload = polytope_to_doc(P)
    if args.output:
        _write(args.output, dump(payload, args.pretty) + "\n")
        return EXIT_OK, {"written": args.output}
    return EXIT_OK, payload


class Arg(NamedTuple):
    """One argument of a command, in the terms of
    `ArgumentParser.add_argument`: a name without a leading "-" is the
    positional, and an option is a store-true flag or takes one value, or
    one or more values with `nargs="+"`."""
    names: tuple[str, ...]
    action: Optional[str] = None
    nargs: Optional[str] = None
    type: Optional[Callable] = None
    choices: Optional[tuple] = None
    required: Optional[bool] = None
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.names[0].lstrip("-").replace("-", "_")


FILE = Arg(("file",))


class Command(NamedTuple):
    help: str
    handler: Callable
    arguments: tuple[Arg, ...]


# Each command's arguments are declared here once: `build_parser` adds them
# to a subparser of the whole tree, and `_match` reads a well-formed call
# off them.
COMMANDS = {
    "classify": Command("monotypy and strong monotypy verdicts", _cmd_classify, (FILE,)),
    "skeleton": Command("extract the skeleton decomposition", _cmd_skeleton, (FILE,)),
    "illuminate": Command("build the illumination set", _cmd_illuminate, (
        FILE, Arg(("--verify",), action="store_true"))),
    "verify": Command("verify an external direction set", _cmd_verify, (
        FILE, Arg(("--directions",), required=True))),
    "fan": Command("normal fan of a simple polytope", _cmd_fan, (
        FILE, Arg(("--verify-unique",), action="store_true"))),
    "oracle": Command("exact minimum illumination number", _cmd_oracle, (FILE,)),
    "gen": Command("generate a built-in instance", _cmd_gen, (
        Arg(("family",), choices=FAMILIES),
        Arg(("--dims",), type=int, nargs="+"),
        Arg(("--seed",), type=int, help="randomize the offsets with this seed"),
        Arg(("--output", "-o")))),
}


@cache  # parsing leaves the parser unchanged
def build_parser():
    """The whole argparse tree: the top level and a subparser per command.
    Only help and usage errors need it, so argparse is imported here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="polyillum",
        description="Classify polytope normal sets, extract skeletons, build "
                    "and verify illumination sets, and compute exact minimum "
                    "illumination numbers.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, prog=f"polyillum {name}")
        for arg in command.arguments:
            p.add_argument(*arg.names, **{key: value for key, value in arg._asdict().items()
                                          if key != "names" and value is not None})
        p.set_defaults(handler=command.handler)
    return parser


def _match(arguments: tuple[Arg, ...], argv: list) -> Optional[dict]:
    """The values of a command's arguments in argv, with argparse's
    defaults, when argv is a plain call: the positional and each option at
    most once, every option written out in full, no value starting with "-"
    and every value valid. Anything else gives None, and argparse reads it."""
    options = {name: arg for arg in arguments for name in arg.names if name.startswith("-")}
    positional = next(arg for arg in arguments if not arg.names[0].startswith("-"))
    values = {arg.dest: False if arg.action else None for arg in arguments}
    seen = set()
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            arg, taken = positional, [token]
        elif (arg := options.get(token)) is None:
            return None
        elif arg.action:
            taken = []
        else:  # one value, or with nargs="+" every value up to the next option
            end = i
            while end < len(argv) and not argv[end].startswith("-") and (arg.nargs or end == i):
                end += 1
            taken, i = argv[i:end], end
            if not taken:
                return None
        if arg in seen:
            return None
        seen.add(arg)
        try:
            converted = [(arg.type or str)(t) for t in taken]
        except ValueError:
            return None
        if arg.choices is not None and any(c not in arg.choices for c in converted):
            return None
        values[arg.dest] = True if arg.action else converted if arg.nargs else converted[0]
    if positional not in seen or any(arg.required and arg not in seen for arg in arguments):
        return None
    return values


def _parse(argv: list):
    """The namespace of `[--pretty] command args...`: read off the
    command's `Arg`s when `_match` takes argv, and otherwise by the whole
    argparse tree, which alone prints help and usage errors."""
    pretty = argv[:1] == ["--pretty"]
    name, *rest = argv[pretty:] or [None]
    command = COMMANDS.get(name)
    if command is not None and (values := _match(command.arguments, rest)) is not None:
        return SimpleNamespace(pretty=pretty, command=name, handler=command.handler, **values)
    return build_parser().parse_args(argv)


def run_command(argv) -> int:
    try:
        args = _parse(list(argv))
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code else EXIT_OK
    try:
        code, payload = args.handler(args)
    except NotStronglyMonotypicError as err:
        payload = {"error": str(err),
                   "certificate": certificate_to_doc(err.certificate)}
        code = EXIT_PROPERTY_FAILS
    except InputError as err:
        payload = {"error": str(err)}
        if err.witness is not None:
            payload["witness"] = vector_to_strings(err.witness)
        code = EXIT_INPUT_ERROR
    except InternalInvariantError as err:
        payload = {"error": str(err)}
        code = EXIT_INTERNAL
    except Exception as err:  # a traceback would exit 1, the code of a verdict
        payload = {"error": f"{type(err).__name__}: {err}"}
        code = EXIT_INTERNAL
    print(dump(payload, args.pretty))
    return code


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the rest to devnull, so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
