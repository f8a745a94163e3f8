"""Batch command-line front end.

Subcommands: encode, check, oracle, gen, gen-random.  Stdout carries the
payload (JSON with sorted keys by default, or an indented text rendering
with --format text), stderr carries diagnostics.  Exit codes: 0 = yes /
resilient, 1 = no / not resilient, 2 = error, 3 = engine/oracle or
generator/source disagreement.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import warnings
from typing import Dict, List, Optional, Tuple

# Only what every `check` runs is imported here: a module-level import
# runs on every `resilp` start.  Problem modules, oracles and generators
# load on the path that uses them, and are called as module attributes.
from .engine import _MAX_SCENARIOS, check_resiliency
from .errors import ResilpError, ValidationError
from .jsonio import (
    assignment_to_dict,
    read_object,
    resiliency_from_dict,
    resiliency_to_dict,
    verdict_to_dict,
)

# ---------------------------------------------------------------- plumbing


def _read_doc(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError("document nests too deeply to read") from None


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _render_text(value, indent: str = "") -> List[str]:
    lines: List[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{indent}-")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    else:
        lines.append(f"{indent}{_scalar(value)}")
    return lines


def _emit(doc, fmt: str) -> None:
    if fmt == "text":
        print("\n".join(_render_text(doc)))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


# ------------------------------------------------------- problem dispatch


def _read_rcs(module, doc):
    """The rcs reader, with each warning it gives (the columns it renamed)
    printed as a plain ``warning:`` line on stderr on every call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read = module.instance_from_dict(doc)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return read


# Each problem's module and its reader, which turns a document into the
# instance and the per-column renaming the rcs reader applies to its
# strings (empty for every other problem).  Readers take the module, so a
# reader and the module's `encode` are looked up when called.
_PROBLEMS = {
    "rdscp": ("setcover", lambda m, doc: (m.RdscpInstance.from_dict(doc), ())),
    "rcs": ("closest_string", _read_rcs),
    "sched": ("scheduling", lambda m, doc: (m.SchedulingInstance.from_dict(doc), ())),
    "bribery": ("bribery", lambda m, doc: (m.BriberyInstance.from_dict(doc), ())),
    "policy": (
        "setcover",
        lambda m, doc: (m.from_policy(m.AuthorizationPolicy.from_dict(doc)), ()),
    ),
}
PROBLEMS = tuple(_PROBLEMS)


def _load(args, doc):
    """``(module, instance, renaming, system)`` for a document of
    ``args.problem``, or ``(None, None, (), system)`` for a raw system
    (``args.problem`` is None).  A problem module is loaded here, on first
    use; its instance is not encoded.  An option the input does not take
    is refused first."""
    _options(args)
    if args.problem is None:
        return None, None, (), resiliency_from_dict(doc)
    name, read = _PROBLEMS[args.problem]
    module = importlib.import_module(f".{name}", __package__)
    return (module, *read(module, doc), None)


def _options(args) -> dict:
    """rcs's distance contract, which its encoder, decoder and oracle share;
    ``--aggregate-distance`` on any other input is a ValidationError."""
    if args.problem == "rcs":
        return {"per_row_distance": not args.aggregate_distance}
    if args.aggregate_distance:
        raise ValidationError("--aggregate-distance applies to --problem rcs only")
    return {}


# --max-points when not given: what plain box enumeration and the sched
# oracle visit at most.  It equals oracles._MAX_POINTS, kept apart so that
# a start does not import the oracles and the encoders they load.
_MAX_POINTS = 10_000_000


def _refuse_max_points(args, *, oracle: bool, exhaustive: bool = False) -> None:
    """``--max-points`` given where no reference decider reads it is a
    ValidationError.  Plain box enumeration (``exhaustive``, or raw input
    under ``oracle``) and the sched oracle read it; the other oracles have
    budgets of their own, and the engine counts scenarios."""
    reads = exhaustive or oracle and args.problem in (None, "sched")
    if args.max_points is not None and not reads:
        raise ValidationError(
            "--max-points applies to --exhaustive, or to --raw or --problem "
            "sched input under --oracle or oracle"
        )


def _reference(args, inst, system, *, exhaustive: bool = False) -> bool:
    """The reference decider's answer: plain box enumeration of the system
    for raw input or under ``exhaustive``, else the problem's own oracle."""
    from . import oracles

    max_points = _MAX_POINTS if args.max_points is None else args.max_points
    if exhaustive or args.problem is None:
        return oracles.forall_exists_oracle(system, max_points=max_points)
    if args.problem in ("rdscp", "policy"):
        return oracles.rdscp_oracle(inst)
    if args.problem == "rcs":
        return oracles.rcs_oracle(inst, **_options(args))
    if args.problem == "sched":
        return oracles.sched_oracle(inst, max_points=max_points)
    return oracles.bribery_oracle(inst)


def _moves_doc(moves, census: Dict[Tuple[int, ...], int]) -> dict:
    return {
        "moves": [
            {
                "from": "".join(str(c) for c in src),
                "to": "".join(str(c) for c in dst),
                "count": count,
            }
            for src, dst, count in moves
        ],
        "census_after": {
            "".join(str(c) for c in order): count
            for order, count in census.items()
            if count
        },
    }


def _adversary_doc(problem: str, inst, adversary, renaming) -> dict:
    if problem in ("rdscp", "policy"):
        return {
            "removed_indices": list(adversary),
            "removed_sets": [sorted(inst.family[i]) for i in adversary],
        }
    if problem == "rcs":
        from .closest_string import denormalize_rows
        return {"corrupted": list(denormalize_rows(adversary.rows, renaming))}
    if problem == "sched":
        return {"delays": list(adversary)}
    return _moves_doc(*adversary)


def _solution_doc(problem: str, solution, renaming):
    if problem in ("rdscp", "policy"):
        return [list(cover) for cover in solution]
    if problem == "rcs":
        from .closest_string import denormalize_rows
        return {"center": denormalize_rows((solution,), renaming)[0]}
    if problem == "sched":
        return {"assignment": solution}
    return _moves_doc(*solution)


def _decode_payload(args, module, inst, renaming, verdict):
    """The witness, or a resilient verdict's first scenario with the answer
    the check found for it, read back in the problem's terms."""
    if verdict.resilient:
        if verdict.sample is None:
            return None
        scenario, x_values = verdict.sample
    else:
        scenario, x_values = verdict.witness_z, None
    payload = {
        "scenario": assignment_to_dict(scenario),
        "adversary": None,
        "solution": assignment_to_dict(x_values),
    }
    if module is None:
        return payload
    adversary = module.decode_scenario(inst, scenario)
    payload["adversary"] = _adversary_doc(args.problem, inst, adversary, renaming)
    if x_values is not None:
        solution = module.decode_solution(inst, adversary, x_values, **_options(args))
        payload["solution"] = _solution_doc(args.problem, solution, renaming)
    return payload


# ------------------------------------------------------------ subcommands


def cmd_encode(args) -> int:
    module, inst, _, _ = _load(args, _read_doc(args.instance))
    system = module.encode(inst, **_options(args))
    out = resiliency_to_dict(system)
    if args.kappa:
        blob = json.dumps(out, sort_keys=True)
        print(
            f"kappa={system.kappa} size_bytes={len(blob.encode('utf-8'))}",
            file=sys.stderr,
        )
    _emit(out, args.format)
    return 0


def cmd_check(args) -> int:
    _refuse_max_points(args, oracle=args.oracle, exhaustive=args.exhaustive)
    module, inst, renaming, system = _load(args, _read_doc(args.instance))
    if system is None:
        system = module.encode(inst, **_options(args))

    start = time.perf_counter()
    verdict = check_resiliency(system, max_scenarios=args.max_scenarios)
    report = {
        "verdict": verdict_to_dict(verdict),
        "kappa": system.kappa,
        "wall_time": round(time.perf_counter() - start, 6),
    }
    code = 0 if verdict.resilient else 1

    answers = {}
    for key, wanted in (("oracle", args.oracle), ("exhaustive", args.exhaustive)):
        if not wanted:
            continue
        # raw input has no oracle of its own: --oracle runs the same plain
        # enumeration as --exhaustive, so one run answers both keys
        plain = key == "exhaustive" or args.problem is None
        if plain not in answers:
            answers[plain] = _reference(args, inst, system, exhaustive=plain)
        answer = report[key] = answers[plain]
        if answer != verdict.resilient:
            print(
                f"disagreement: engine={verdict.resilient} {key}={answer}",
                file=sys.stderr,
            )
            code = 3
    if args.decode:
        report["decoded"] = _decode_payload(args, module, inst, renaming, verdict)
    _emit(report, args.format)
    return code


def cmd_oracle(args) -> int:
    _refuse_max_points(args, oracle=True)
    doc = _read_doc(args.instance)
    start = time.perf_counter()
    _, inst, _, system = _load(args, doc)
    answer = _reference(args, inst, system)
    report = {
        "answer": answer,
        "wall_time": round(time.perf_counter() - start, 6),
    }
    _emit(report, args.format)
    return 0 if answer else 1


def cmd_gen(args) -> int:
    from . import setcover

    # the generators validate n, k and every member of the family
    hitting = args.reduction == "hitting-set"
    n, family, k = read_object(
        _read_doc(args.source),
        ("n", "sets" if hitting else "triples", "k"),
        f"{args.reduction} source",
    )
    size, generate = (
        (setcover.family_size_from_hitting_set, setcover.gen_from_hitting_set)
        if hitting
        else (setcover.family_size_from_3dm, setcover.gen_from_3dm)
    )
    if args.verify:
        from . import oracles

        # the instance's oracle would refuse a large family, so refuse it
        # before building the instance or searching the source
        oracles.check_family_size(size(n, family, k))
    inst = generate(n, family, k)

    code = 0
    if args.verify:
        got = oracles.rdscp_oracle(inst)
        if hitting:
            expected = not oracles.hitting_set_oracle(n, family, k)
        else:
            expected = oracles.matching_3dm_oracle(n, family, k)
        if got != expected:
            print(
                f"verification failed: source implies {expected}, "
                f"generated instance answers {got}",
                file=sys.stderr,
            )
            code = 3
        else:
            print(f"verified: both sides answer {got}", file=sys.stderr)
    _emit(inst.to_dict(), args.format)
    return code


def cmd_gen_random(args) -> int:
    import random

    from . import sampling

    generators = {
        "system": sampling.random_system,
        "rdscp": sampling.random_rdscp,
        "rcs": sampling.random_rcs,
        "sched": sampling.random_sched,
        "bribery": sampling.random_bribery,
    }
    rng = random.Random(args.seed)
    gen = generators[args.family]
    docs = []
    for _ in range(args.count):
        thing = gen(rng)
        docs.append(
            resiliency_to_dict(thing) if args.family == "system" else thing.to_dict()
        )
    _emit(docs[0] if args.count == 1 else docs, args.format)
    return 0


# ----------------------------------------------------------------- parser


def _count(text: str) -> int:
    """An int flag value that counts something, so is never negative;
    argparse reports what this refuses as a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The one parser of this process and its commands' parsers by name,
    built on the first `main` call.

    Not built at import, so a start that never parses pays nothing for it.
    It is shared by every later call, so it must hold no per-call state:
    defaults stay immutable and no action keeps what it parsed.
    """
    max_points = dict(
        type=_count, default=None,
        help="box points (sched: delay-and-assignment pairs) that "
             "--exhaustive, or the oracle on --raw or sched input, enumerates "
             "at most; exit 2 past it, or when given where nothing enumerates "
             f"(default {_MAX_POINTS})",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output rendering (default json, sorted keys)",
    )

    parser = argparse.ArgumentParser(
        prog="resilp",
        description="Encode, check, and cross-check resiliency instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", parents=[common], help="instance -> system JSON")
    enc.add_argument("--problem", choices=PROBLEMS, required=True)
    enc.add_argument("instance", help="instance JSON file, or - for stdin")
    enc.add_argument("--kappa", action="store_true",
                     help="print kappa and payload size to stderr")
    enc.add_argument("--aggregate-distance", action="store_true",
                     help="rcs only: one total-distance row instead of per-row rows")
    enc.set_defaults(func=cmd_encode)

    chk = sub.add_parser("check", parents=[common], help="decide resiliency")
    which = chk.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", choices=PROBLEMS)
    which.add_argument("--raw", action="store_true",
                       help="input is a ResiliencySystem JSON, not an instance")
    chk.add_argument("instance", help="JSON file, or - for stdin")
    chk.add_argument("--oracle", action="store_true",
                     help="also run the matching reference decider; exit 3 on mismatch")
    chk.add_argument("--exhaustive", action="store_true",
                     help="also run plain box enumeration on the system; exit 3 on mismatch")
    chk.add_argument("--decode", action="store_true",
                     help="attach a human-readable witness or sample solution")
    chk.add_argument("--max-scenarios", type=_count, default=_MAX_SCENARIOS,
                     help="scenarios the engine checks at most; exit 2 past "
                          f"it (default {_MAX_SCENARIOS})")
    chk.add_argument("--max-points", **max_points)
    chk.add_argument("--aggregate-distance", action="store_true",
                     help="rcs only: one total-distance row instead of per-row rows")
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", parents=[common],
                         help="run only the reference decider")
    which = orc.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", choices=PROBLEMS)
    which.add_argument("--raw", action="store_true")
    orc.add_argument("instance", help="JSON file, or - for stdin")
    orc.add_argument("--max-points", **max_points)
    orc.add_argument("--aggregate-distance", action="store_true",
                     help="rcs only: one total distance instead of one per string")
    orc.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", parents=[common],
                         help="reduce a source problem to an rdscp instance")
    gen.add_argument("--reduction", choices=("hitting-set", "3dm"), required=True)
    gen.add_argument("source", help="source instance JSON file, or - for stdin; "
                                    "exit 2 when the instance would hold more "
                                    "than 10**6 set members")
    gen.add_argument("--verify", action="store_true",
                     help="cross-check both oracles; exit 3 on mismatch, 2 when "
                          "the instance has more than 12 sets or a source search "
                          "more than 10**6 picks")
    gen.set_defaults(func=cmd_gen)

    rnd = sub.add_parser("gen-random", parents=[common],
                         help="seeded random instances for fuzzing")
    rnd.add_argument("--family", required=True,
                     choices=("system", "rdscp", "rcs", "sched", "bribery"))
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--count", type=_count, default=1)
    rnd.set_defaults(func=cmd_gen_random)

    return parser, sub.choices


def _parse(argv: List[str]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser would parse it.

    A command's arguments go straight to that command's parser, which is
    what the top-level parse hands them to, without the top-level pass
    over every argument.  What that parser leaves over is reported by the
    top-level parser, with argparse's words.  The top-level parser itself
    handles no command, an unknown command and its own ``-h``.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse has already written the usage error or the help;
        # its status is 2 or 0
        return exc.code
    try:
        return args.func(args)
    except (ResilpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # exit-code contract: even a bug must land on {0,1,2,3}
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
