"""Tests for named constructions and the asset registry."""

from __future__ import annotations

import itertools
import json

import pytest

from oaqec.algebra import field_create, is_prime_power, poly_eval
from oaqec.arrays import (
    MixedLevelArray,
    claim,
    distance_profile,
    is_orthogonal_array,
    saturation_check,
    strength,
    to_text,
)
from oaqec.constructions import (
    AssetRecord,
    asset_get,
    asset_list,
    asset_records,
    bush,
    full_factorial_mixed,
    hyperoval_oa,
    resolve_symmetric_oa,
)
from oaqec.errors import (
    AssetCorrupt,
    IngredientUnavailable,
    NotPowerOfTwo,
    NotPrimePower,
    StrengthTooHigh,
)

from conftest import naive_distance_set, naive_is_oa


def test_bush_2_2_rows_up_to_labeling():
    A = bush(2, 2)
    assert (A.r, A.n) == (4, 3)
    assert set(A.rows) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert A.strength_checked and A.md == 2


def test_bush_3_2_md():
    A = bush(3, 2)
    assert (A.r, A.n, A.md) == (9, 4, 3)
    assert naive_is_oa(A.rows, A.alphabets, 2)


def test_bush_4_3_md():
    A = bush(4, 3)
    assert (A.r, A.n, A.md) == (64, 5, 3)
    assert A.verified


@pytest.mark.parametrize("s,t", [(s, t) for s in (2, 3, 4, 5, 7, 8, 9)
                                 for t in (2, 3) if s >= t - 1])
def test_bush_strength_and_md_family(s, t):
    A = bush(s, t)
    ok, _ = is_orthogonal_array(A, t)
    assert ok
    assert distance_profile(A).md == s + 2 - t


def bush_by_poly_eval(s, t):
    """Reference Bush array: each polynomial evaluated point by point."""
    f = field_create(s)
    rows = sorted(tuple(poly_eval(f, coeffs, e) for e in f.elements()) + (coeffs[-1],)
                  for coeffs in itertools.product(range(s), repeat=t))
    return claim(MixedLevelArray(rows, (s,) * (s + 1)), strength=t, md=s + 2 - t)


@pytest.mark.parametrize("s,t", [(s, t) for s in range(2, 14) if is_prime_power(s)
                                 for t in range(1, s + 2) if s ** t <= 20_000])
def test_bush_matches_poly_eval_transcription(s, t):
    A = bush(s, t)
    ref = bush_by_poly_eval(s, t)
    assert A.rows == ref.rows
    assert (A.strength, A.md, A.status()) == (ref.strength, ref.md, ref.status())


def test_bush_degree_one_is_repeated_diagonal():
    A = bush(3, 1)
    assert A.rows == ((0,) * 4, (1,) * 4, (2,) * 4)
    assert A.md == 4


def test_bush_errors():
    with pytest.raises(NotPrimePower):
        bush(6, 2)
    with pytest.raises(StrengthTooHigh):
        bush(2, 4)
    with pytest.raises(ValueError):
        bush(2, 0)


@pytest.mark.parametrize("s", [2, 4, 8])
def test_hyperoval_strength_three(s):
    A = hyperoval_oa(s)
    assert (A.r, A.n) == (s ** 3, s + 2)
    ok, _ = is_orthogonal_array(A, 3)
    assert ok
    assert distance_profile(A).md == s


def test_hyperoval_rejects_non_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        hyperoval_oa(3)
    with pytest.raises(NotPowerOfTwo):
        hyperoval_oa(6)


def test_full_factorial_mixed_basic():
    A = full_factorial_mixed((2, 2))
    assert A.rows == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert A.strength == 2 and A.strength_checked


def test_full_factorial_mixed_6_2():
    A = full_factorial_mixed((6, 2))
    assert (A.r, A.n, A.strength, A.md) == (12, 2, 2, 1)


def test_full_factorial_mixed_repeated():
    A = full_factorial_mixed((2,), lam=6)
    assert A.r == 12 and A.strength == 1 and A.md == 0
    assert A.rows[:6] == ((0,),) * 6


def test_full_factorial_errors():
    with pytest.raises(ValueError):
        full_factorial_mixed(())
    with pytest.raises(ValueError):
        full_factorial_mixed((2, 2), lam=0)


def test_resolver_prime_power_direct():
    A = resolve_symmetric_oa(7, 5, 2)
    assert (A.r, A.n, A.md) == (49, 5, 4)
    assert A.verified


def test_resolver_hyperoval_route():
    A = resolve_symmetric_oa(4, 6, 3)
    assert (A.r, A.n) == (64, 6)
    assert A.md == 4 and A.verified


def test_resolver_product_56():
    A = resolve_symmetric_oa(56, 6, 3)
    assert (A.r, A.n) == (56 ** 3, 6)
    assert A.alphabets == (56,) * 6
    assert A.strength == 3 and A.md == 4
    # too large for the default budget: claims are carried, not checked
    assert A.status() == "constructed, unverified"
    # spot-check the strength claim on a sampled subset of tuple counts
    from collections import Counter
    pair = Counter((row[0], row[3], row[5]) for row in A.rows)
    assert all(pair[k] == 56 ** 3 // 56 ** 3 or pair[k] == A.r // 56 ** 3
               for k in pair)
    assert len(pair) == 56 ** 3
    # and the distance claim on a deterministic row sample
    sample = A.rows[:: 997]
    dists = naive_distance_set(sample)
    assert min(dists) >= A.md


def test_resolver_product_small_verified():
    A = resolve_symmetric_oa(12, 3, 1)
    assert (A.r, A.n, A.strength, A.md) == (12, 3, 1, 3)
    assert A.verified
    A = resolve_symmetric_oa(15, 4, 2)
    assert (A.r, A.n, A.strength, A.md) == (225, 4, 2, 3)
    assert A.verified


def test_resolver_six_levels_needs_assets():
    with pytest.raises(IngredientUnavailable) as err:
        resolve_symmetric_oa(6, 4, 2)
    message = str(err.value)
    assert "direct" in message and "product" in message and "assets" in message


def test_resolver_twelve_uses_bundled_asset():
    A = resolve_symmetric_oa(12, 5, 2)
    assert (A.r, A.n) == (144, 5)
    assert A.alphabets == (12,) * 5
    assert A.strength == 2 and A.md == 4 and A.verified


def test_asset_builder_18():
    A = asset_get("oa_18_5_6_3333")
    assert A.alphabets == (6, 3, 3, 3, 3)
    assert (A.r, A.strength, A.md) == (18, 2, 3)
    assert A.verified


def test_asset_builder_8():
    A = asset_get("oa_8_5_4_2222")
    assert A.alphabets == (4, 2, 2, 2, 2)
    assert (A.r, A.strength, A.md) == (8, 2, 3)
    assert saturation_check(A)


def test_asset_bundled_files_verify():
    for name, md in [("oa_144_5_12_2", 4), ("oa_100_4_10_2", 3),
                     ("oa_72_5_12_6666", 3)]:
        A = asset_get(name)
        assert A.verified and A.md == md, name


def test_asset_72_shape():
    A = asset_get("oa_72_5_12_6666")
    assert A.alphabets == (12, 6, 6, 6, 6)
    assert (A.r, A.n, A.strength) == (72, 5, 2)


def test_asset_missing_name():
    with pytest.raises(IngredientUnavailable, match="no asset named"):
        asset_get("oa_does_not_exist")


def test_asset_list_contains_all_registered():
    names = [rec.name for rec in asset_list()]
    assert names == sorted(names)
    for required in ("oa_8_5_4_2222", "oa_18_5_6_3333", "oa_72_5_12_6666",
                     "oa_100_4_10_2", "oa_144_5_12_2"):
        assert required in names


def test_asset_corrupt_payload_rejected(tmp_path):
    # flip one symbol of a valid asset and re-register it externally
    good = asset_get("oa_100_4_10_2")
    rows = [list(row) for row in good.rows]
    rows[0][0] = (rows[0][0] + 1) % 10
    # a zero budget records the false claim unchecked, so it reaches the file
    bad = claim(MixedLevelArray(rows, good.alphabets), strength=2, budget=0)
    payload = to_text(bad)
    (tmp_path / "bad.txt").write_text(payload)
    import hashlib
    manifest = {"bad_asset": {
        "r": 100, "n": 4, "alphabets": [10, 10, 10, 10], "t": 2, "md": 3,
        "file": "bad.txt",
        "sha256": hashlib.sha256(payload.encode()).hexdigest()}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(AssetCorrupt):
        asset_get("bad_asset", asset_dir=str(tmp_path))


def test_asset_sha_mismatch_rejected(tmp_path):
    good = asset_get("oa_100_4_10_2")
    payload = to_text(good)
    (tmp_path / "tampered.txt").write_text(payload)
    manifest = {"tampered": {
        "r": 100, "n": 4, "alphabets": [10, 10, 10, 10], "t": 2, "md": 3,
        "file": "tampered.txt", "sha256": "0" * 64}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(AssetCorrupt, match="sha256"):
        asset_get("tampered", asset_dir=str(tmp_path))


def test_asset_external_dir_extends_registry(tmp_path):
    A = full_factorial_mixed((3, 3))
    payload = to_text(A)
    (tmp_path / "ff.txt").write_text(payload)
    import hashlib
    manifest = {"ff_9_2": {
        "r": 9, "n": 2, "alphabets": [3, 3], "t": 2, "md": 1, "file": "ff.txt",
        "sha256": hashlib.sha256(payload.encode()).hexdigest()}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    records = asset_records(asset_dir=str(tmp_path))
    assert "ff_9_2" in records and records["ff_9_2"].source == "external"
    B = asset_get("ff_9_2", asset_dir=str(tmp_path))
    assert B.rows == A.rows


def test_asset_record_describe():
    rec = AssetRecord("x", 4, 3, (2, 2, 2), 2, 2)
    assert "OA(4,3,2x2x2,2)" in rec.describe()
