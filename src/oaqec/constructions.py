"""Named orthogonal-array constructions and the verified-asset registry.

Polynomial (Bush) arrays and their hyperoval extension cover prime-power
alphabets; composite alphabets are reached by columnwise products over the
prime-power factorization; everything else comes from bundled data files
that are fully re-verified on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .algebra import factorize_prime_powers, field_create, is_prime_power
from .arrays import (
    MixedLevelArray,
    attach_index_column,
    certify,
    claim,
    delete_columns,
    from_text,
    lexsorted,
    measure_md,
    multiply_oa,
)
from .errors import (
    AssetCorrupt,
    IngredientUnavailable,
    NotPowerOfTwo,
    NotPrimePower,
    StrengthTooHigh,
)
from .schemes import d_2s, oa_from_scheme

ASSET_DIR_ENV = "OAQEC_ASSET_DIR"


def bush(s: int, t: int, budget: Optional[int] = None) -> MixedLevelArray:
    """Polynomial array: OA(s^t, s+1, s, t) of index unity for s >= t-1.

    Rows are the polynomials of degree < t over GF(s); the first s columns
    evaluate each polynomial at a field element and the last column reads
    off the degree-(t-1) coefficient.
    """
    if not is_prime_power(s):
        raise NotPrimePower(f"{s} is not a prime power")
    if t < 1:
        raise ValueError(f"strength must be >= 1, got {t}")
    if t - 1 > s:
        raise StrengthTooHigh(f"need s >= t-1 (got s={s}, t={t})")
    f = field_create(s)
    # Horner's rule over the field tables evaluates every polynomial
    # (coefficients low degree first) at every point at once
    coeffs = np.indices((s,) * t, dtype=f.add_table.dtype).reshape(t, -1).T
    points = np.arange(s)
    acc = np.zeros((len(coeffs), s), dtype=f.add_table.dtype)
    for j in range(t - 1, -1, -1):
        acc = f.add_table[f.mul_table[acc, points], coeffs[:, j:j + 1]]
    A = MixedLevelArray(lexsorted(np.hstack([acc, coeffs[:, -1:]])), (s,) * (s + 1))
    return claim(A, strength=t, md=(s + 1) - t + 1, budget=budget)


def hyperoval_oa(s: int, budget: Optional[int] = None) -> MixedLevelArray:
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
    return claim(MixedLevelArray(table, (s,) * (s + 2)), strength=3, md=s, budget=budget)


def full_factorial_mixed(alphabets, lam: int = 1) -> MixedLevelArray:
    """All level tuples in lexicographic order, each repeated `lam` times."""
    alphabets = tuple(int(a) for a in alphabets)
    if not alphabets:
        raise ValueError("alphabets must be nonempty")
    if lam < 1:
        raise ValueError(f"index must be >= 1, got {lam}")
    table = np.repeat(np.indices(alphabets).reshape(len(alphabets), -1).T, lam, axis=0)
    md = None if len(table) == 1 else (1 if lam == 1 else 0)
    A = MixedLevelArray(table, alphabets)
    return certify(A, len(alphabets), md)


def _prime_power_piece(u: int, n_cols: int, t: int,
                       budget: Optional[int]) -> MixedLevelArray | str:
    """A symmetric index-unity OA(u^t, n_cols, u, t), or a reason string."""
    if u < t - 1:
        return f"alphabet {u} is below the strength floor t-1 = {t - 1}"
    if u + 1 >= n_cols:
        A = bush(u, t, budget)
    elif t == 3 and u >= 2 and not u & (u - 1) and u + 2 >= n_cols:
        A = hyperoval_oa(u, budget)
    else:
        return f"alphabet {u} supports at most {u + 1} columns (need {n_cols})"
    if A.n > n_cols:
        A = delete_columns(A, range(n_cols, A.n), budget)
        # index unity, so the distance is forced
        A = claim(A, md=n_cols - t + 1, budget=budget)
    return A


def resolve_symmetric_oa(s: int, n_cols: int, t: int,
                         budget: Optional[int] = None,
                         asset_dir: Optional[str] = None,
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
        piece = _prime_power_piece(s, n_cols, t, budget)
        if isinstance(piece, MixedLevelArray):
            _note(f"OA({piece.r},{n_cols},{s},{t}) by polynomial construction")
            return piece
        failures.append(f"direct: {piece}")
    else:
        failures.append(f"direct: {s} is not a prime power")

    factors = factorize_prime_powers(s)
    if len(factors) > 1:
        pieces, bad = [], None
        for u in factors:
            piece = _prime_power_piece(u, n_cols, t, budget)
            if isinstance(piece, str):
                bad = f"product: {piece}"
                break
            pieces.append(piece)
        if bad is None:
            out = pieces[0]
            for piece in pieces[1:]:
                out = multiply_oa(out, piece, budget)
            _note(f"OA({out.r},{n_cols},{s},{t}) as a columnwise product over "
                  f"prime-power factors {factors}")
            return out
        failures.append(bad)
    elif not is_prime_power(s):
        failures.append("product: no nontrivial prime-power factorization")

    candidates = [rec for rec in asset_records(asset_dir).values()
                  if rec.alphabets == (s,) * rec.n
                  and rec.n >= n_cols and rec.strength >= t]
    if candidates:
        rec = min(candidates, key=lambda rec: (rec.r, rec.name))
        A = asset_get(rec.name, asset_dir, budget)
        if A.n > n_cols:
            A = delete_columns(A, range(n_cols, A.n), budget)
            measure_md(A, budget)  # the projected distance is recomputed, never assumed
        digest = rec.sha256[:16] if rec.sha256 else "builder"
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


def _build_oa_18_5_6_3333() -> MixedLevelArray:
    """OA(18,5,6^1 3^4,2) with MD 3: block-index the lift of the width-6
    scheme over GF(3), then drop two of the ternary columns."""
    A = attach_index_column(oa_from_scheme(d_2s(3)), 3)
    return delete_columns(A, (5, 6))


def _build_oa_8_5_4_2222() -> MixedLevelArray:
    """OA(8,5,4^1 2^4,2) with MD 3: block-index the lift of the width-4
    scheme over GF(2)."""
    return attach_index_column(oa_from_scheme(d_2s(2)), 2)


_BUILDERS: dict[str, Callable[[], MixedLevelArray]] = {
    "oa_18_5_6_3333": _build_oa_18_5_6_3333,
    "oa_8_5_4_2222": _build_oa_8_5_4_2222,
}

_BUILDER_RECORDS = {
    "oa_18_5_6_3333": AssetRecord("oa_18_5_6_3333", 18, 5, (6, 3, 3, 3, 3),
                                  2, 3, source="builder"),
    "oa_8_5_4_2222": AssetRecord("oa_8_5_4_2222", 8, 5, (4, 2, 2, 2, 2),
                                 2, 3, source="builder"),
}


def _bundled_dir() -> Path:
    return Path(__file__).resolve().parent / "assets"


def _records_from_manifest(dirpath: Path, source: str) -> dict[str, AssetRecord]:
    manifest = dirpath / "manifest.json"
    if not manifest.is_file():
        return {}
    try:
        entries = json.loads(manifest.read_text())
    except json.JSONDecodeError as exc:
        raise AssetCorrupt(f"unreadable manifest {manifest}: {exc}") from exc
    out = {}
    for name, meta in entries.items():
        out[name] = AssetRecord(
            name=name, r=int(meta["r"]), n=int(meta["n"]),
            alphabets=tuple(int(a) for a in meta["alphabets"]),
            strength=int(meta["t"]), md=int(meta["md"]),
            file=str(dirpath / meta["file"]), sha256=meta.get("sha256"),
            source=source)
    return out


def asset_records(asset_dir: Optional[str] = None) -> dict[str, AssetRecord]:
    """Registry contents: builders, bundled files, then any external
    directory (environment variable or explicit argument wins on clashes)."""
    records = dict(_BUILDER_RECORDS)
    records.update(_records_from_manifest(_bundled_dir(), "bundled"))
    env_dir = os.environ.get(ASSET_DIR_ENV)
    if env_dir:
        records.update(_records_from_manifest(Path(env_dir), "external"))
    if asset_dir:
        records.update(_records_from_manifest(Path(asset_dir), "external"))
    return records


def asset_list(asset_dir: Optional[str] = None) -> list[AssetRecord]:
    return sorted(asset_records(asset_dir).values(), key=lambda rec: rec.name)


def asset_get(name: str, asset_dir: Optional[str] = None,
              budget: Optional[int] = None) -> MixedLevelArray:
    """Load one registered array, fully re-verifying strength and MD."""
    records = asset_records(asset_dir)
    if name not in records:
        known = ", ".join(sorted(records)) or "none"
        raise IngredientUnavailable(f"no asset named {name!r} (registered: {known})")
    rec = records[name]
    if rec.source == "builder" and rec.file is None:
        A = _BUILDERS[name]()
    else:
        path = Path(rec.file)
        if not path.is_file():
            raise IngredientUnavailable(f"asset file missing: {path}")
        payload = path.read_bytes()
        if rec.sha256:
            digest = hashlib.sha256(payload).hexdigest()
            if digest != rec.sha256:
                raise AssetCorrupt(f"{name}: sha256 mismatch "
                                   f"(manifest {rec.sha256[:12]}…, file {digest[:12]}…)")
        A = from_text(payload.decode())
    if (A.r, A.n, A.alphabets) != (rec.r, rec.n, rec.alphabets):
        raise AssetCorrupt(f"{name}: payload shape {A.r}x{A.n} alphabets "
                           f"{A.alphabets} does not match record")
    try:
        certify(A, rec.strength, rec.md)
    except AssertionError as exc:
        raise AssetCorrupt(f"{name}: {exc}") from exc
    return A
