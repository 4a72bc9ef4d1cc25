"""Tests for named constructions and the asset registry."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from oaqec import arrays, constructions
from oaqec.algebra import field_create, is_prime_power
from oaqec.arrays import (
    MixedLevelArray,
    claim,
    distance_profile,
    ensure_checked,
    is_orthogonal_array,
    to_text,
)
from oaqec.constructions import (
    ASSET_DIR_ENV,
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

from conftest import naive_distance_set, naive_is_oa, poly_eval


def test_bush_2_2_rows_up_to_labeling():
    A = ensure_checked(bush(2, 2))
    assert (A.r, A.n) == (4, 3)
    assert set(A.rows) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert A.strength_checked and A.md == 2


def test_bush_3_2_md():
    A = bush(3, 2)
    assert (A.r, A.n, A.md) == (9, 4, 3)
    assert naive_is_oa(A.rows, A.alphabets, 2)


def test_bush_4_3_md():
    A = ensure_checked(bush(4, 3))
    assert (A.r, A.n, A.md) == (64, 5, 3)
    assert A.verified


@pytest.mark.parametrize("s,t", [(s, t) for s in (2, 3, 4, 5, 7, 8, 9)
                                 for t in (2, 3) if s >= t - 1])
def test_bush_strength_and_md_family(s, t):
    A = bush(s, t)
    ok, _ = is_orthogonal_array(A, t)
    assert ok
    assert distance_profile(A) == s + 2 - t


def bush_by_poly_eval(s, t):
    """Reference Bush array: each polynomial evaluated point by point."""
    f = field_create(s)
    rows = sorted(tuple(poly_eval(f, coeffs, e) for e in range(f.q)) + (coeffs[-1],)
                  for coeffs in itertools.product(range(s), repeat=t))
    return claim(MixedLevelArray(rows, (s,) * (s + 1)), strength=t, md=s + 2 - t)


@pytest.mark.parametrize("s,t", [(s, t) for s in range(2, 14) if is_prime_power(s)
                                 for t in range(1, s + 2) if s ** t <= 20_000])
def test_bush_matches_poly_eval_transcription(s, t):
    A = bush(s, t)
    ref = bush_by_poly_eval(s, t)
    assert A.rows == ref.rows
    assert (A.strength, A.md, A.status()) == (ref.strength, ref.md, ref.status())


# SHA-256 of the uint8, C-order table, for tables past the 20,000 rows of the
# transcription test; bush(9, 5) is a catalogue ingredient
LARGE_BUSH_DIGESTS = {
    (9, 5): "4eab4b525213409fa41c7be4cc39c3034708d489f906f3d7641fb4009b6d01f3",
    (16, 4): "9f00ab0d16286a2c1c0284cb34202dbb625f6227001a346870c48e6406a7cca7",
    (27, 3): "8e1f782f5f333230cb32bb7c98401f8c19a3dd3995ed84719e8d898e190f7496",
    (13, 4): "18bebb636cf6c85a06f941913693d43959ffd9c27a39af9e8e620af16787aa08",
}


@pytest.mark.parametrize("s,t", LARGE_BUSH_DIGESTS)
def test_large_bush_tables_keep_their_bytes(s, t):
    table = constructions._bush_table(s, t)
    assert (table.dtype, table.flags.c_contiguous) == (np.uint8, True)
    assert hashlib.sha256(table.tobytes()).hexdigest() == LARGE_BUSH_DIGESTS[s, t]


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
    assert distance_profile(A) == s


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
    A = ensure_checked(resolve_symmetric_oa(7, 5, 2))
    assert (A.r, A.n, A.md) == (49, 5, 4)
    assert A.verified


def test_resolver_hyperoval_route():
    A = ensure_checked(resolve_symmetric_oa(4, 6, 3))
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
    A = ensure_checked(resolve_symmetric_oa(12, 3, 1))
    assert (A.r, A.n, A.strength, A.md) == (12, 3, 1, 3)
    assert A.verified
    A = ensure_checked(resolve_symmetric_oa(15, 4, 2))
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


def test_an_asset_fallback_reads_the_manifest_and_the_payload_once(monkeypatch):
    monkeypatch.delenv(ASSET_DIR_ENV, raising=False)
    reads, resolves = [], []
    read_bytes, resolve = Path.read_bytes, Path.resolve
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: reads.append(self.name) or read_bytes(self))
    monkeypatch.setattr(Path, "resolve",
                        lambda self, *a, **k: resolves.append(self) or resolve(self, *a, **k))
    trace = []
    A = resolve_symmetric_oa(12, 5, 2, trace)
    assert reads == ["manifest.json", "oa_144_5_12_2.txt"]
    assert resolves == []
    digest = asset_records()["oa_144_5_12_2"].sha256[:16]
    assert trace == [f"OA(144,5,12,2) from asset oa_144_5_12_2 ({digest})"]
    assert A.verified


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
    assert names == ["oa_100_4_10_2", "oa_144_5_12_2", "oa_72_5_12_6666"]
    assert all(rec.file and rec.sha256 for rec in asset_list())


def test_asset_add_writes_a_pinned_file_that_asset_get_loads(tmp_path, monkeypatch):
    store = tmp_path / "store"
    rec = constructions.asset_add(to_text(full_factorial_mixed((3, 3))), "ff_9",
                                  store, None, None)
    # the md is measured when none is declared
    assert (rec.r, rec.n, rec.strength, rec.md, rec.source) == (9, 2, 2, 1, "external")
    payload = (store / "ff_9.txt").read_bytes()
    assert rec.sha256 == hashlib.sha256(payload).hexdigest()
    monkeypatch.setenv(ASSET_DIR_ENV, str(store))
    assert asset_records()["ff_9"] == rec
    trace = []
    A = asset_get("ff_9", trace=trace)
    assert A.verified and (A.strength, A.md) == (2, 1)
    assert trace == [f"asset ff_9 (sha256 {rec.sha256[:16]})"]


def test_asset_add_certifies_before_it_writes(tmp_path):
    store = tmp_path / "store"
    with pytest.raises(AssetCorrupt, match="^ff_9: md claim 2 != actual 1$"):
        constructions.asset_add(to_text(full_factorial_mixed((3, 3))), "ff_9",
                                store, None, 2)
    with pytest.raises(AssetCorrupt, match="^parity: strength 3 claim failed: "):
        constructions.asset_add(to_text(bush(2, 2)), "parity", store, 3, None)
    assert not store.exists()


#: a cyclic OA(6,5,6,1): row i is (i, i+1, ..., i+4) mod 6, and any two rows
#: differ in every column, so its md is 5
CYCLIC_6 = "OA 6 5 1\n6 6 6 6 6\n" + "".join(
    " ".join(str((i + c) % 6) for c in range(5)) + "\n" for i in range(6))


def test_a_second_asset_add_extends_the_manifest(tmp_path, monkeypatch):
    store = tmp_path / "store"
    first = constructions.asset_add(to_text(full_factorial_mixed((2, 2))), "oa_4_2_2_2",
                                    store, None, None)
    payload = (store / "oa_4_2_2_2.txt").read_bytes()
    second = constructions.asset_add(CYCLIC_6, "oa_6_5_6_1", store, None, 5)
    assert (store / "oa_4_2_2_2.txt").read_bytes() == payload
    entries = json.loads((store / "manifest.json").read_text())
    assert sorted(entries) == ["oa_4_2_2_2", "oa_6_5_6_1"]
    for rec in (first, second):
        pinned = hashlib.sha256((store / f"{rec.name}.txt").read_bytes()).hexdigest()
        assert entries[rec.name]["sha256"] == rec.sha256 == pinned
    monkeypatch.setenv(ASSET_DIR_ENV, str(store))
    for rec, shape in ((first, (4, 2, 2, 1)), (second, (6, 5, 1, 5))):
        assert asset_records()[rec.name] == rec
        A = asset_get(rec.name)
        assert A.verified and (A.r, A.n, A.strength, A.md) == shape, rec.name


def test_the_asset_route_cuts_a_wider_asset_to_the_columns_asked(tmp_path, monkeypatch):
    cyclic = constructions.asset_add(CYCLIC_6, "oa_6_5_6_1", tmp_path, None, 5)
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    trace = []
    # 6 is no prime power, and GF(2) gives too few columns for the product
    A = resolve_symmetric_oa(6, 4, 1, trace)
    assert (A.r, A.n, A.alphabets, A.strength) == (6, 4, (6,) * 4, 1)
    assert A.rows == tuple(tuple((i + c) % 6 for c in range(4)) for i in range(6))
    assert trace[-1] == f"OA(6,4,6,1) from asset oa_6_5_6_1 ({cyclic.sha256[:16]})"


def test_an_edited_registry_is_seen_by_the_next_asset_route_lookup(tmp_path, monkeypatch):
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    cyclic = constructions.asset_add(CYCLIC_6, "oa_6_5_6_1", tmp_path, None, 5)
    trace = []
    A = resolve_symmetric_oa(6, 4, 1, trace)
    # the same name over another OA(6, 5, 6, 1): the constant rows
    diagonal = "OA 6 5 1\n6 6 6 6 6\n" + "".join(f"{i} {i} {i} {i} {i}\n" for i in range(6))
    edited = constructions.asset_add(diagonal, "oa_6_5_6_1", tmp_path, None, 5)
    B = resolve_symmetric_oa(6, 4, 1, trace)
    assert B.rows == tuple((i,) * 4 for i in range(6)) != A.rows
    assert trace == [f"OA(6,4,6,1) from asset oa_6_5_6_1 ({rec.sha256[:16]})"
                     for rec in (cyclic, edited)]
    (tmp_path / "manifest.json").unlink()
    with pytest.raises(IngredientUnavailable, match="assets: no registered array"):
        resolve_symmetric_oa(6, 4, 1)


def test_asset_corrupt_payload_rejected(tmp_path, monkeypatch):
    # flip one symbol of a valid asset and re-register it externally
    good = asset_get("oa_100_4_10_2")
    rows = [list(row) for row in good.rows]
    rows[0][0] = (rows[0][0] + 1) % 10
    # claim records the false claim unchecked, so it reaches the file
    bad = claim(MixedLevelArray(rows, good.alphabets), strength=2)
    payload = to_text(bad)
    (tmp_path / "bad.txt").write_text(payload)
    import hashlib
    manifest = {"bad_asset": {
        "r": 100, "n": 4, "alphabets": [10, 10, 10, 10], "t": 2, "md": 3,
        "file": "bad.txt",
        "sha256": hashlib.sha256(payload.encode()).hexdigest()}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    with pytest.raises(AssetCorrupt):
        asset_get("bad_asset")


def test_asset_sha_mismatch_rejected(tmp_path, monkeypatch):
    good = asset_get("oa_100_4_10_2")
    payload = to_text(good)
    (tmp_path / "tampered.txt").write_text(payload)
    manifest = {"tampered": {
        "r": 100, "n": 4, "alphabets": [10, 10, 10, 10], "t": 2, "md": 3,
        "file": "tampered.txt", "sha256": "0" * 64}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    with pytest.raises(AssetCorrupt, match="sha256"):
        asset_get("tampered")


def test_asset_external_dir_extends_registry(tmp_path, monkeypatch):
    A = full_factorial_mixed((3, 3))
    payload = to_text(A)
    (tmp_path / "ff.txt").write_text(payload)
    import hashlib
    manifest = {"ff_9_2": {
        "r": 9, "n": 2, "alphabets": [3, 3], "t": 2, "md": 1, "file": "ff.txt",
        "sha256": hashlib.sha256(payload.encode()).hexdigest()}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    records = asset_records()
    assert "ff_9_2" in records and records["ff_9_2"].source == "external"
    B = asset_get("ff_9_2")
    assert B.rows == A.rows


def test_a_rewritten_manifest_is_seen_and_each_manifest_is_parsed_once(tmp_path,
                                                                     monkeypatch):
    A = full_factorial_mixed((3, 3))
    token = f"manifest {tmp_path}"
    _register(tmp_path, "ff_9", A, strength=2, md=1, token=token)
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    assert asset_records()["ff_9"].strength == 2
    with mock.patch.object(constructions.json, "loads", wraps=json.loads) as parse:
        assert asset_records()["ff_9"].strength == 2
        assert parse.call_count == 0
        _register(tmp_path, "ff_9", A, strength=1, md=1, token=token)
        assert asset_records()["ff_9"].strength == 1
        assert parse.call_count == 1


def test_asset_record_describe():
    rec = AssetRecord("x", 4, 3, (2, 2, 2), 2, 2)
    assert "OA(4,3,2x2x2,2)" in rec.describe()


# --- reuse: one Bush table per (s, t), one certification per asset payload ----


def test_bush_calls_share_one_array_that_checks_leave_unchanged():
    A, B = bush(5, 3), bush(5, 3)
    assert A is B
    weaker = claim(ensure_checked(A), strength=2)
    assert (weaker.strength, weaker.strength_checked, weaker.md_checked) == (2, False, True)
    assert (B.strength, B.strength_checked, B.md, B.md_checked) == (3, False, 4, False)
    assert ensure_checked(B).verified and not A.verified


def test_bush_and_full_factorials_are_checked_once_per_argument_tuple(monkeypatch):
    constructions.bush.cache_clear()
    constructions._full_factorial.cache_clear()
    counts = {"is_orthogonal_array": 0, "_out_of_range_entry": 0}
    for name in counts:
        def spy(*args, _real=getattr(arrays, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(arrays, name, spy)
    bushes = [bush(s, t) for _ in range(3) for s, t in ((5, 3), (4, 2))]
    assert counts == {"is_orthogonal_array": 0, "_out_of_range_entry": 2}
    factorials = [full_factorial_mixed(alphabets, lam) for _ in range(3)
                  for alphabets, lam in (((2, 3), 1), ((2, 3), 2), ((4,), 1))]
    assert counts == {"is_orthogonal_array": 3, "_out_of_range_entry": 5}
    for arrays_made, kinds in ((bushes, 2), (factorials, 3)):
        assert len({id(A) for A in arrays_made}) == len({id(A.matrix) for A in arrays_made}) \
            == kinds
        for A, B in zip(arrays_made, arrays_made[kinds:]):
            assert A is B and not B.matrix.flags.writeable
    assert all(F.verified for F in factorials)
    assert not any(A.strength_checked or A.md_checked for A in bushes)


def test_shared_bush_table_is_read_only():
    table = bush(3, 2).matrix
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_bush_table_cache_matches_a_fresh_build():
    keys = [(s, t) for s in range(2, 14) if is_prime_power(s) for t in range(1, 5)
            if t - 1 <= s]
    cached = {key: bush(*key).matrix for key in keys}
    constructions.bush.cache_clear()
    for key in keys:
        fresh = bush(*key).matrix
        assert fresh is not cached[key]
        assert fresh.dtype == cached[key].dtype
        assert np.array_equal(fresh, cached[key]), key


def _register(directory, name, A, *, strength, md, token):
    """Write A as an external asset without a manifest sha256; `token` goes
    into a comment line, so each test hashes its own payload."""
    payload = f"# {token}\n" + to_text(A)
    (directory / f"{name}.txt").write_text(payload)
    manifest = {name: {"r": A.r, "n": A.n, "alphabets": list(A.alphabets),
                       "t": strength, "md": md, "file": f"{name}.txt"}}
    (directory / "manifest.json").write_text(json.dumps(manifest))


def test_asset_reload_of_the_same_payload_is_not_recertified(tmp_path, monkeypatch):
    _register(tmp_path, "ff_8", full_factorial_mixed((2, 2, 2)), strength=3, md=1,
              token=f"reload {tmp_path}")
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    with mock.patch.object(arrays, "is_orthogonal_array",
                           wraps=arrays.is_orthogonal_array) as check:
        first = asset_get("ff_8")
        assert check.call_count == 1
        second = asset_get("ff_8")
        assert check.call_count == 1
    # the certified array is shared: no caller can change its claims
    assert first is second
    assert (second.strength, second.md, second.verified) == (3, 1, True)
    assert not claim(second, strength=2).verified
    assert first.strength == 3 and first.verified
    assert asset_get("ff_8") is first


def test_rewritten_external_payload_is_certified_again(tmp_path, monkeypatch):
    _register(tmp_path, "ff_8", full_factorial_mixed((2, 2, 2)), strength=3, md=1,
              token=f"rewrite {tmp_path}")
    monkeypatch.setenv(ASSET_DIR_ENV, str(tmp_path))
    assert asset_get("ff_8").verified
    # different bytes, same record, and a false strength claim
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 0)]
    _register(tmp_path, "ff_8", MixedLevelArray(rows, (2, 2, 2)), strength=3, md=1,
              token=f"rewrite {tmp_path}")
    with pytest.raises(AssetCorrupt, match="strength 3 claim failed"):
        asset_get("ff_8")


@pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "/abs"])
def test_asset_add_refuses_a_name_that_is_not_a_plain_file_name(tmp_path, name):
    store = tmp_path / "store"
    with pytest.raises(ValueError, match="is not a plain file name$"):
        constructions.asset_add(to_text(full_factorial_mixed((3, 3))), name,
                                store, None, None)
    assert list(tmp_path.iterdir()) == []
