"""Named orthogonal-array constructions and the verified-asset registry.

Polynomial (Bush) arrays and their hyperoval extension cover prime-power
alphabets; composite alphabets are reached by columnwise products over the
prime-power factorization; everything else comes from the asset registry.

Constructions record, assets check.  A constructed array carries its
strength and distance claims unchecked: the builder that compiles a code
checks the one array the code is built from (see `arrays`).  A full
factorial, and an asset loaded from a data file (outside input), is
certified in full whatever the budget.

The asset registry is data files only: the bundled directory, and the one
`OAQEC_ASSET_DIR` names, hold array text files (each name one plain path
component) and a `manifest.json` of their parameters and sha256 pins.  This
module alone reads or writes a registry: `asset_add` certifies an array
(measuring an md not declared) before it writes the file and its entry.  A
load is one lookup and one read: `asset_get` finds a record by name and
`resolve_symmetric_oa` by its parameters, and the one loader checks the pin
and certifies the payload; the digest goes into the ingredient trace.

Work is not redone within a process, and arrays never change their claims,
so one can be shared.  A process shares, and every call with the same
arguments returns the one read-only array made on the first:
  * `bush(s, t)`, over a table built and validated once per (s, t);
  * a full factorial, built and certified once per (alphabets, index);
  * a prime-power piece (Bush or hyperoval with columns deleted), once per
    (u, n_cols, t), and the product route's array, once per (s, n_cols, t):
    `resolve_symmetric_oa` returns these with their claims unchecked, and
    writes its ingredient note on every call.
An asset payload is read and hashed on every load but certified once: a
reload of the same bytes, for the same record parameters, returns the array
its first load certified.  A process never shares a registry lookup: a
manifest is read on every lookup and parsed once per its bytes, so an edit
is seen at once.  Nor does it share a check: checks return new arrays, so a
row that checks a shared array leaves it unchecked for the next row.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import factorize_prime_powers, field_create, is_prime_power
from .arrays import (
    MixedLevelArray,
    certify,
    claim,
    delete_columns,
    from_text,
    lexsorted,
    minimal_distance,
    multiply_oa,
)
from .errors import (
    AssetCorrupt,
    ClaimFailed,
    IngredientUnavailable,
    NotPowerOfTwo,
    NotPrimePower,
    StrengthTooHigh,
    ToolkitError,
)

ASSET_DIR_ENV = "OAQEC_ASSET_DIR"
#: file name of a registry directory's manifest
MANIFEST_NAME = "manifest.json"
#: the registry shipped with the package
_BUNDLED_DIR = Path(__file__).resolve().parent / "assets"


@functools.lru_cache(maxsize=None)
def bush(s: int, t: int) -> MixedLevelArray:
    """Polynomial array: OA(s^t, s+1, s, t) of index unity for s >= t-1.

    Rows are the polynomials of degree < t over GF(s); the first s columns
    evaluate each polynomial at a field element and the last column reads
    off the degree-(t-1) coefficient.  The array, its claims recorded
    unchecked, is made once per (s, t) over a table built and validated
    once, and every call with those arguments returns it.
    """
    if not is_prime_power(s):
        raise NotPrimePower(f"{s} is not a prime power")
    if t < 1:
        raise ValueError(f"strength must be >= 1, got {t}")
    if t - 1 > s:
        raise StrengthTooHigh(f"need s >= t-1 (got s={s}, t={t})")
    A = MixedLevelArray(_bush_table(s, t), (s,) * (s + 1))
    return claim(A, strength=t, md=(s + 1) - t + 1)


def _bush_table(s: int, t: int) -> np.ndarray:
    """The rows of bush(s, t), lexsorted, in the field tables' dtype.

    The table grows one coefficient at a time, c_0 first: each row splits
    into s rows, one per c_j, and each cell adds c_j * x^j (an s x s slice
    of the multiplication table) with one addition-table lookup.  The last
    column grows with them, adding c_{t-1} to 0 at the last step and 0
    before it, so the full table is made once, not stacked from a copy.
    The rows come in np.indices order of (c_0, ..., c_{t-1}), c_{t-1}
    fastest."""
    f = field_create(s)
    dtype = f.add_table.dtype
    points = np.arange(s)
    power = np.ones(s, dtype=dtype)  # x^j at every point x, with x^0 = 1
    acc = np.zeros((1, s + 1), dtype=dtype)
    for j in range(t):
        lead = points if j == t - 1 else np.zeros(s, dtype=dtype)
        terms = np.column_stack([f.mul_table[:, power], lead])
        acc = f.add_table[acc[:, None, :], terms[None, :, :]].reshape(-1, s + 1)
        power = f.mul_table[power, points]
    return lexsorted(acc)


def hyperoval_oa(s: int) -> MixedLevelArray:
    """Two extra columns in characteristic 2: OA(s^3, s+2, s, 3) for s = 2^m.

    Rows (a2, a1, a0) range over GF(s)^3; the columns are a2, a1 and the
    quadratic evaluations a2*x^2 + a1*x + a0.  Squaring is injective in
    characteristic 2, which is what makes the two extra columns work.
    """
    if s < 2 or s & (s - 1):
        raise NotPowerOfTwo(f"{s} is not a power of two >= 2")
    f = field_create(s)
    a2, a1, a0 = np.indices((s,) * 3).reshape(3, -1, 1)
    x = np.arange(s)
    quad = f.add_table[f.mul_table[a2, f.mul_table[x, x]], f.add_table[f.mul_table[a1, x], a0]]
    table = lexsorted(np.hstack([a2, a1, quad]))
    return claim(MixedLevelArray(table, (s,) * (s + 2)), strength=3, md=s)


def full_factorial_mixed(alphabets, lam: int = 1) -> MixedLevelArray:
    """All level tuples in lexicographic order, each repeated `lam` times,
    certified: one array, built and certified once per (alphabets, lam)."""
    alphabets = tuple(int(a) for a in alphabets)
    if not alphabets:
        raise ValueError("alphabets must be nonempty")
    if lam < 1:
        raise ValueError(f"index must be >= 1, got {lam}")
    return _full_factorial(alphabets, lam)


@functools.lru_cache(maxsize=None)
def _full_factorial(alphabets: tuple[int, ...], lam: int) -> MixedLevelArray:
    table = np.repeat(np.indices(alphabets).reshape(len(alphabets), -1).T, lam, axis=0)
    return certify(MixedLevelArray(table, alphabets), len(alphabets), 1 if lam == 1 else 0)


@functools.lru_cache(maxsize=None)
def _prime_power_piece(u: int, n_cols: int, t: int) -> MixedLevelArray | str:
    """A symmetric index-unity OA(u^t, n_cols, u, t), or a reason string:
    one array, its claims recorded unchecked, made once per (u, n_cols, t)."""
    if u < t - 1:
        return f"alphabet {u} is below the strength floor t-1 = {t - 1}"
    if u + 1 >= n_cols:
        A = bush(u, t)
    elif t == 3 and u >= 2 and not u & (u - 1) and u + 2 >= n_cols:
        A = hyperoval_oa(u)
    else:
        return f"alphabet {u} supports at most {u + 1} columns (need {n_cols})"
    if A.n > n_cols:
        A = delete_columns(A, range(n_cols, A.n))
        # index unity, so the distance is forced
        A = claim(A, md=n_cols - t + 1)
    return A


@functools.lru_cache(maxsize=None)
def _product_piece(s: int, n_cols: int, t: int) -> MixedLevelArray | str:
    """The columnwise product of the prime-power pieces of s, or the first
    piece's reason string: one array, its claims recorded unchecked, made
    once per (s, n_cols, t)."""
    pieces = []
    for u in factorize_prime_powers(s):
        piece = _prime_power_piece(u, n_cols, t)
        if isinstance(piece, str):
            return piece
        pieces.append(piece)
    return functools.reduce(multiply_oa, pieces)


def resolve_symmetric_oa(s: int, n_cols: int, t: int,
                         trace: Optional[list[str]] = None) -> MixedLevelArray:
    """Find an OA(*, n_cols, s, t): direct polynomial constructions first,
    then a columnwise product over the prime-power factors of s, then the
    asset registry.  Raises IngredientUnavailable explaining every failure.
    When `trace` is a list, a note naming the winning route is appended."""
    if n_cols < 1 or t < 1 or t > n_cols or s < 2:
        raise ValueError(f"bad request: s={s}, n_cols={n_cols}, t={t}")
    failures = []

    def _note(text: str) -> None:
        if trace is not None:
            trace.append(text)

    if is_prime_power(s):
        piece = _prime_power_piece(s, n_cols, t)
        if isinstance(piece, MixedLevelArray):
            _note(f"OA({piece.r},{n_cols},{s},{t}) by polynomial construction")
            return piece
        failures.append(f"direct: {piece}")
    else:
        failures.append(f"direct: {s} is not a prime power")

    factors = factorize_prime_powers(s)
    if len(factors) > 1:
        product = _product_piece(s, n_cols, t)
        if isinstance(product, MixedLevelArray):
            _note(f"OA({product.r},{n_cols},{s},{t}) as a columnwise product over "
                  f"prime-power factors {factors}")
            return product
        failures.append(f"product: {product}")

    candidates = [rec for rec in asset_records().values()
                  if rec.alphabets == (s,) * rec.n
                  and rec.n >= n_cols and rec.strength >= t]
    if candidates:
        rec = min(candidates, key=lambda rec: (rec.r, rec.name))
        A = _load_asset(rec)
        if A.n > n_cols:
            A = delete_columns(A, range(n_cols, A.n))
        digest = rec.sha256[:16] if rec.sha256 else "unhashed"
        _note(f"OA({A.r},{n_cols},{s},{t}) from asset {rec.name} ({digest})")
        return A
    failures.append(f"assets: no registered array with alphabet {s}, "
                    f"at least {n_cols} columns and strength >= {t}")

    raise IngredientUnavailable(
        f"cannot construct an OA with {n_cols} columns at {s} levels, "
        f"strength {t}: " + "; ".join(failures))


# --- asset registry ------------------------------------------------------------


@dataclass(frozen=True)
class AssetRecord:
    """Declared parameters for one registered ingredient array."""

    name: str
    r: int
    n: int
    alphabets: tuple[int, ...]
    strength: int
    md: int
    file: Optional[str] = None
    sha256: Optional[str] = None
    source: str = "bundled"

    def describe(self) -> str:
        alpha = "x".join(str(a) for a in self.alphabets)
        return (f"{self.name}: OA({self.r},{self.n},{alpha},{self.strength}) "
                f"MD={self.md} [{self.source}]")


def _plain_component(name: str) -> bool:
    """Whether `name` is a single plain path component (not empty, `.` or
    `..`), so that joined to a directory it names a file inside it."""
    return name not in ("", ".", "..") and Path(name).name == name


#: the JSON type of each field a manifest entry must carry
_ENTRY_FIELDS = {"r": int, "n": int, "alphabets": list, "t": int, "md": int, "file": str}


@functools.lru_cache(maxsize=None)
def _parse_manifest(payload: bytes, manifest: Path, source: str) -> tuple[AssetRecord, ...]:
    """The records of one manifest's bytes; AssetCorrupt unless they are a
    JSON object of entries that carry every field with its type."""
    try:
        entries = json.loads(payload)
    except ValueError as exc:
        raise AssetCorrupt(f"unreadable manifest {manifest}: {exc}") from exc
    if not isinstance(entries, dict):
        raise AssetCorrupt(f"manifest {manifest} is not a JSON object")
    records = []
    for name, meta in entries.items():
        meta = meta if isinstance(meta, dict) else {}
        # type(), not isinstance(): a JSON boolean is no count
        bad = [key for key, kind in _ENTRY_FIELDS.items() if type(meta.get(key)) is not kind
               or kind is list and any(type(a) is not int for a in meta[key])]
        # an entry may leave its payload unpinned, but a pin is a string
        if type(meta.get("sha256", "")) is not str:
            bad.append("sha256")
        if bad:
            raise AssetCorrupt(f"manifest {manifest}: entry {name!r} lacks or "
                               f"mistypes {', '.join(bad)}")
        if not _plain_component(meta["file"]):
            raise AssetCorrupt(f"manifest {manifest}: entry {name!r} file "
                               f"{meta['file']!r} is not a plain file name")
        # as asset_add refuses: a strength below 1 would certify nothing
        if meta["t"] < 1:
            raise AssetCorrupt(f"manifest {manifest}: entry {name!r} has strength "
                               f"{meta['t']}, not >= 1")
        records.append(AssetRecord(
            name=name, r=meta["r"], n=meta["n"], alphabets=tuple(meta["alphabets"]),
            strength=meta["t"], md=meta["md"], file=str(manifest.parent / meta["file"]),
            sha256=meta.get("sha256"), source=source))
    return tuple(records)


def asset_records() -> dict[str, AssetRecord]:
    """Registry contents: the bundled files, then the directory named by
    OAQEC_ASSET_DIR, whose records win on a name clash."""
    records = {}
    for dirpath, source in ((_BUNDLED_DIR, "bundled"),
                            (os.environ.get(ASSET_DIR_ENV), "external")):
        if dirpath and (manifest := Path(dirpath) / MANIFEST_NAME).is_file():
            records.update((rec.name, rec) for rec in
                           _parse_manifest(manifest.read_bytes(), manifest, source))
    return records


def asset_list() -> list[AssetRecord]:
    return sorted(asset_records().values(), key=lambda rec: rec.name)


def _certify_asset(name: str, A: MixedLevelArray, t: int,
                   md: Optional[int]) -> MixedLevelArray:
    """certify(A, t, md), a false claim reported as AssetCorrupt."""
    try:
        return certify(A, t, md)
    except ClaimFailed as exc:
        raise AssetCorrupt(f"{name}: {exc}") from exc


#: asset payloads that `certify` passed, by (sha256 of the payload, r, n,
#: alphabets, strength, md)
_CERTIFIED_PAYLOADS: dict[tuple, MixedLevelArray] = {}


def asset_get(name: str, trace: Optional[list[str]] = None) -> MixedLevelArray:
    """Load one registered array by name, its strength and MD certified.
    When `trace` is a list, a note naming the asset and its payload's
    sha256 (`unhashed` when the manifest pins none) is appended."""
    records = asset_records()
    if name not in records:
        known = ", ".join(sorted(records)) or "none"
        raise IngredientUnavailable(f"no asset named {name!r} (registered: {known})")
    rec = records[name]
    A = _load_asset(rec)
    if trace is not None:
        pin = f"sha256 {rec.sha256[:16]}" if rec.sha256 else "unhashed"
        trace.append(f"asset {name} ({pin})")
    return A


def _load_asset(rec: AssetRecord) -> MixedLevelArray:
    """The array of one record, its pin checked and its claims certified.

    The payload is read and hashed on every call and certified on its first
    load with the record's parameters; a reload of the same bytes returns
    the array that check passed."""
    path = Path(rec.file)
    if not path.is_file():
        raise IngredientUnavailable(f"asset file missing: {path}")
    payload = path.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if rec.sha256 and digest != rec.sha256:
        raise AssetCorrupt(f"{rec.name}: sha256 mismatch "
                           f"(manifest {rec.sha256[:12]}…, file {digest[:12]}…)")
    key = (digest, rec.r, rec.n, rec.alphabets, rec.strength, rec.md)
    if key not in _CERTIFIED_PAYLOADS:
        try:
            A = from_text(payload.decode())
        except (ToolkitError, ValueError) as exc:
            raise AssetCorrupt(f"{rec.name}: unreadable payload: {exc}") from exc
        if (A.r, A.n, A.alphabets) != (rec.r, rec.n, rec.alphabets):
            raise AssetCorrupt(f"{rec.name}: payload shape {A.r}x{A.n} alphabets "
                               f"{A.alphabets} does not match record")
        _CERTIFIED_PAYLOADS[key] = _certify_asset(rec.name, A, rec.strength, rec.md)
    return _CERTIFIED_PAYLOADS[key]


def asset_add(text: str, name: str, asset_dir: str | Path, strength: Optional[int],
              md: Optional[int]) -> AssetRecord:
    """Admit the array written in `text` to the registry in `asset_dir`.

    The array is certified at `strength` (None: the strength its header
    claims) and at `md` when one is given; an md not given is measured.
    The payload then goes to `<name>.txt` and its entry, pinned by the
    payload's sha256, to the manifest; the directory and the manifest are
    created when missing.  Returns the new record; a name that is not a
    plain file name is refused before anything is read or written."""
    if not _plain_component(name):
        raise ValueError(f"asset name {name!r} is not a plain file name")
    A = from_text(text)
    t = A.strength if strength is None else strength
    if t < 1:
        raise ValueError(f"strength must be >= 1, got {t}")
    _certify_asset(name, A, t, md)
    if md is None:
        md = minimal_distance(A)
    directory = Path(asset_dir)
    manifest = directory / MANIFEST_NAME
    entries = {}
    if manifest.is_file():
        # refuse to extend a manifest the registry could not read
        old = manifest.read_bytes()
        _parse_manifest(old, manifest, "external")
        entries = json.loads(old)
    payload = text if text.endswith("\n") else text + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(payload)
    entries[name] = {"r": A.r, "n": A.n, "alphabets": list(A.alphabets), "t": t,
                     "md": md, "file": f"{name}.txt", "sha256": digest}
    manifest.write_text(json.dumps(entries, indent=2) + "\n")
    return AssetRecord(name, A.r, A.n, A.alphabets, t, md,
                       str(directory / f"{name}.txt"), digest, "external")
