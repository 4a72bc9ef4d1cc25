"""Command-line front end for constructing, verifying, and cataloguing codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import tables
from .arrays import distance_profile, from_text, is_orthogonal_array
from .constructions import asset_get, asset_list, asset_records
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
from .synthesis import (
    QuantumCode,
    corollary_5lie,
    theorem_52s,
    theorem_5s2,
    theorem_huan,
    theorem_s1,
    theorem_tn,
)
from .verify import cross_validate, verify_code

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGREDIENT = 3
EXIT_VERIFICATION = 4

THEOREMS = ("t1", "t2", "t3", "t4", "c1", "c2", "c3", "t5")

class _UsageError(ValueError):
    """Bad flag combination detected after argparse."""


def _parse_factors(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values or any(v < 2 for v in values):
        raise _UsageError(f"{flag} entries must all be >= 2, got {text!r}")
    return values


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _dispatch(args) -> QuantumCode:
    factors = _parse_factors(args.factors, "--factors") if args.factors else None
    q_factors = _parse_factors(args.q_factors, "--q-factors") if args.q_factors else None
    theorem, s = args.theorem, args.s
    if theorem in ("t1", "t2"):
        chosen = factors if factors is not None else [s]
        builder = theorem_5s2 if theorem == "t1" else theorem_52s
        return builder(s, chosen)
    if theorem in ("t3", "c1"):
        _require(args.d is not None, f"{theorem} needs --d")
        _require(factors is not None and len(factors) == 1,
                 f"{theorem} needs --factors with exactly one entry")
        return theorem_s1(s, args.d, factors[0])
    if theorem in ("t4", "c2"):
        _require(args.d is not None, f"{theorem} needs --d")
        _require(factors is not None, f"{theorem} needs --factors")
        return theorem_tn(s, args.d, args.l or 0, factors, q_factors)
    if theorem == "c3":
        _require(factors is not None, "c3 needs --factors")
        return corollary_5lie(s, factors)
    _require(factors is not None, "t5 needs --factors for the base construction")
    _require(q_factors is not None, "t5 needs --q-factors for the column split")
    _require(args.d is not None, "t5 needs --d")
    base = theorem_tn(s, args.d, args.l or 0, factors, None)
    return theorem_huan(base, None, q_factors)


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


def _manifest_path(dirpath: Path) -> Path:
    return dirpath / "manifest.json"


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
    target = Path(args.dir) if args.dir else None
    _require(target is not None,
             "assets add needs --dir (a writable registry directory)")
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}")
    array = from_text(text)
    declared_t = args.strength if args.strength is not None else array.strength
    ok, witness = is_orthogonal_array(array, declared_t)
    if not ok:
        raise AssetCorrupt(f"{args.file}: strength {declared_t} fails: {witness}")
    measured_md = distance_profile(array).md
    if args.md is not None and args.md != measured_md:
        raise AssetCorrupt(f"{args.file}: declared MD {args.md}, measured {measured_md}")

    name = args.name or Path(args.file).stem
    target.mkdir(parents=True, exist_ok=True)
    payload = text if text.endswith("\n") else text + "\n"
    (target / f"{name}.txt").write_text(payload)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    manifest_file = _manifest_path(target)
    manifest = json.loads(manifest_file.read_text()) if manifest_file.is_file() else {}
    manifest[name] = {"r": array.r, "n": array.n,
                      "alphabets": list(array.alphabets), "t": declared_t,
                      "md": measured_md, "file": f"{name}.txt",
                      "sha256": digest}
    manifest_file.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"added {name}: OA({array.r},{array.n}) strength {declared_t} "
          f"MD {measured_md} sha256={digest[:16]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    construct.add_argument("--d", type=int, help="detection distance d")
    construct.add_argument("--l", type=int, default=0,
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
