"""Command-line front end for constructing, verifying, and cataloguing codes."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import tables
from .constructions import asset_add, asset_get, asset_list, asset_records
from .errors import (
    AssetCorrupt,
    ClaimFailed,
    ExcludedS,
    IngredientUnavailable,
    ToolkitError,
)
from .formats import (
    code_from_ket_text,
    code_from_record_text,
    code_to_ket_text,
    code_to_record_text,
    provenance_block,
)
from .synthesis import QuantumCode, build
from .verify import cross_validate, verify_code

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGREDIENT = 3
EXIT_VERIFICATION = 4

THEOREMS = ("t1", "t2", "t3", "t4", "c1", "c2", "c3", "t5")

#: the theorems that read each optional construct flag (every one reads --s
#: and --factors); any other theorem refuses the flag
_FLAG_READERS = {"d": ("t3", "c1", "t4", "c2", "t5"),
                 "l": ("t4", "c2", "t5"),
                 "q_factors": ("t4", "c2", "t5")}


class _UsageError(ValueError):
    """Bad flag combination detected after argparse."""


def _parse_factors(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list; the builders validate them."""
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _dispatch(args) -> QuantumCode:
    for flag, readers in _FLAG_READERS.items():
        _require(getattr(args, flag) is None or args.theorem in readers,
                 f"{args.theorem} does not take --{flag.replace('_', '-')}")
    factors = _parse_factors(args.factors, "--factors") if args.factors else None
    q_factors = _parse_factors(args.q_factors, "--q-factors") if args.q_factors else None
    return build(args.theorem, args.s, args.d, args.l or 0, factors, q_factors)


def _write_outputs(code: QuantumCode, args) -> None:
    body = (code_to_ket_text(code) if args.format == "ket"
            else code_to_record_text(code))
    if args.out:
        out = Path(args.out)
        out.write_text(body)
        sidecar = out.with_name(out.name + ".provenance.txt")
        sidecar.write_text(provenance_block(code) + "\n")
        print(f"wrote {out} and {sidecar}")
    else:
        print(body, end="")


def _cmd_construct(args) -> int:
    code = _dispatch(args)
    crossed = cross_validate(code)
    report = crossed.report
    print(report.render())
    print(crossed.render())
    print(provenance_block(code))
    _write_outputs(code, args)
    if not (report.passed and crossed.agree):
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFICATION
    if code.status() != "verified":
        message = ("constructed, unverified: combinatorial certification "
                   "exceeded the verification budget")
        if args.unverified_ok:
            print(message + " (accepted via --unverified-ok)")
            return EXIT_OK
        print(message, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


_MODE_NAMES = {"strict": "strict-uniform", "def5": "definition-5"}


def _cmd_verify(args) -> int:
    try:
        text = Path(args.code).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.code}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        code = code_from_record_text(text)
    else:
        code = code_from_ket_text(text, args.d)
    report = verify_code(code, args.d, mode=_MODE_NAMES[args.mode])
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_tables(args) -> int:
    results = tables.reproduce(args.id, max_s=args.max_s)
    print(tables.render_report(args.id, results))
    return EXIT_VERIFICATION if tables.has_mismatch(results) else EXIT_OK


def _cmd_assets(args) -> int:
    if args.action == "list":
        for record in asset_list():
            line = record.describe()
            if record.sha256:
                line += f" sha256={record.sha256[:16]}"
            print(line)
        return EXIT_OK
    if args.action == "verify":
        names = sorted(asset_records())
        for name in names:
            asset_get(name)
            print(f"{name}: ok")
        print(f"{len(names)} assets verified")
        return EXIT_OK
    return _assets_add(args)


def _assets_add(args) -> int:
    _require(args.file is not None, "assets add needs --file")
    _require(bool(args.dir), "assets add needs --dir (a writable registry directory)")
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}")
    rec = asset_add(text, args.name or Path(args.file).stem, args.dir,
                    args.strength, args.md)
    print(f"added {rec.name}: OA({rec.r},{rec.n}) strength {rec.strength} "
          f"MD {rec.md} sha256={rec.sha256[:16]}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it is, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="oaqec",
        description="Construct, verify, and catalogue quantum codes built "
                    "from orthogonal arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="run one construction and verify the result")
    construct.add_argument("--theorem", required=True, choices=THEOREMS,
                           help="construction to run (t5 composes the column "
                                "split on top of a t4 build)")
    construct.add_argument("--s", type=int, required=True,
                           help="wide-alphabet size")
    construct.add_argument("--d", type=int,
                           help="detection distance d (t3/c1/t4/c2/t5)")
    construct.add_argument("--l", type=int,
                           help="number of index columns (t4/c2/t5)")
    construct.add_argument("--factors",
                           help="comma-separated replacement factors")
    construct.add_argument("--q-factors", dest="q_factors",
                           help="comma-separated factors for the second "
                                "replacement (t4/c2) or the split (t5)")
    construct.add_argument("--out", help="output file path")
    construct.add_argument("--format", choices=("ket", "record"),
                           default="ket", help="output format")
    construct.add_argument("--unverified-ok", action="store_true",
                           help="exit 0 when both verifiers pass but the "
                                "combinatorial certificates exceeded the "
                                "budget; the report never changes")
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify", help="verify a code file")
    verify.add_argument("--code", required=True, help="ket or record file")
    verify.add_argument("--d", type=int, required=True,
                        help="claimed detection distance")
    verify.add_argument("--mode", choices=tuple(_MODE_NAMES),
                        default="strict", help="reduction check mode")
    verify.set_defaults(func=_cmd_verify)

    tables_cmd = sub.add_parser(
        "tables", help="regenerate a published catalogue and diff it")
    tables_cmd.add_argument("--id", required=True,
                            help="catalogue id, I through VII")
    tables_cmd.add_argument("--max-s", dest="max_s", type=int, default=12,
                            help="skip rows with s beyond this cutoff")
    tables_cmd.set_defaults(func=_cmd_tables)

    assets = sub.add_parser("assets", help="inspect or extend the ingredient registry")
    assets.add_argument("action", choices=("list", "verify", "add"))
    assets.add_argument("--file", help="array text file to add")
    assets.add_argument("--name", help="registry name (default: file stem)")
    assets.add_argument("--strength", type=int,
                        help="declared strength (default: file header)")
    assets.add_argument("--md", type=int, help="declared minimal distance")
    assets.add_argument("--dir", help="writable registry directory")
    assets.set_defaults(func=_cmd_assets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngredientUnavailable, ExcludedS) as exc:
        print(f"ingredient unavailable: {exc}", file=sys.stderr)
        return EXIT_INGREDIENT
    except AssetCorrupt as exc:
        print(f"asset corrupt: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ClaimFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ToolkitError, ValueError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
