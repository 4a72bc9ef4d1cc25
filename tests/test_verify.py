"""Tests for the exact reduction checks and the two-sided cross validation."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oaqec
from oaqec import arrays, verify
from oaqec.errors import ClaimFailed, ProvenanceMissing
from oaqec.formats import code_from_ket_text
from oaqec.constructions import bush
from oaqec.synthesis import (OrthogonalPartition, QuantumCode, code_from_partitioned_oa,
                             make_code_params, theorem_5s2, theorem_tn)
from oaqec.verify import (
    MODES,
    ReductionWitness,
    cross_validate,
    reduced_cross_matrix,
    verify_code,
)

from conftest import load_fixture, naive_cross_counts
from test_acceptance import corrupted, emitted_codes


def toy_code():
    """Two inequivalent 2-party states whose cross reductions never vanish."""
    params = make_code_params(2, 0, (2, 2), 2)
    return QuantumCode(params, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])


def corrupt(code):
    """Copy of the code with one ket moved to a word no state contains."""
    taken = {ket for state in code.basis for ket in state}
    basis = [list(state) for state in code.basis]
    ket = basis[0][0]
    for c, delta in itertools.product(range(code.params.n), range(1, 12)):
        s = code.params.alphabets[c]
        cand = ket[:c] + ((ket[c] + delta) % s,) + ket[c + 1:]
        if cand not in taken:
            basis[0][0] = cand
            return QuantumCode(code.params, basis, code.provenance)
    raise AssertionError("no fresh ket found")


# --- reduced cross matrices -----------------------------------------------------


def diagonal(M):
    """The entries (x, x) of a reduction's counts, keyed by x."""
    return {x: v for (x, y), v in M.counts.items() if x == y}


def off_diagonal(M):
    """The entries (x, y) with x != y of a reduction's counts."""
    return {k: v for k, v in M.counts.items() if k[0] != k[1]}


def test_reduction_counts_match_brute_force_on_bundled_code():
    code, _ = load_fixture("qmds_8_8_3")
    n = code.params.n
    subsets = [S for k in (1, 2) for S in itertools.combinations(range(n), k)]
    for i, j in [(0, 0), (0, 1), (1, 0), (2, 5)]:
        for S in subsets:
            M = reduced_cross_matrix(code, i, j, S)
            want = naive_cross_counts(code.basis[i], code.basis[j], S, n)
            assert M.counts == want


def test_self_reduction_trace_equals_state_size():
    code, _ = load_fixture("qmds_5_1_3_9")
    for i in range(code.params.K):
        for S in itertools.combinations(range(code.params.n), 2):
            M = reduced_cross_matrix(code, i, i, S)
            assert sum(diagonal(M).values()) == code.kets_per_state


def test_toy_matrix_helpers():
    code = toy_code()
    self0 = reduced_cross_matrix(code, 0, 0, (0,))
    assert self0.counts == {((0,), (0,)): 1, ((1,), (1,)): 1}
    assert diagonal(self0) == {(0,): 1, (1,): 1} and off_diagonal(self0) == {}
    cross = reduced_cross_matrix(code, 0, 1, (0,))
    assert cross.counts == {((0,), (1,)): 1, ((1,), (0,)): 1}
    assert diagonal(cross) == {} and off_diagonal(cross) == cross.counts


def test_cross_counts_transpose_under_state_swap():
    code, _ = load_fixture("qmds_8_8_3")
    for S in [(0,), (3,), (0, 5)]:
        M = reduced_cross_matrix(code, 0, 1, S)
        W = reduced_cross_matrix(code, 1, 0, S)
        assert M.counts == {(y, x): v for (x, y), v in W.counts.items()}


# --- verification reports ---------------------------------------------------------


def decided_levels(code, d, mode="strict-uniform"):
    """(report, the levels verify_code decided, in order)."""
    with mock.patch.object(verify, "_decide_level", wraps=verify._decide_level) as decide:
        report = verify_code(code, d, mode)
    return report, [call.args[1] for call in decide.call_args_list]


def test_bundled_codes_pass_at_their_stated_level():
    for name in ("qmds_4_12_2", "qmds_5_1_3_12", "qmds_5_1_3_9", "qmds_8_8_3"):
        code, d = load_fixture(name)
        report, levels = decided_levels(code, d)
        assert report.passed and report.certified_distance == d + 1
        # a passing claimed level settles the levels below it
        assert levels == [d]
        assert report.subsets_checked == sum(
            math.comb(code.params.n, k) for k in range(1, d + 1))
        assert len(report.per_subset) == math.comb(code.params.n, d)
        assert "PASS" in report.render()


def test_claiming_one_level_too_high_certifies_the_true_prefix():
    code, d = load_fixture("qmds_4_12_2")
    report = verify_code(code, d + 1)
    assert not report.passed
    assert report.certified_distance == d + 1  # the true level still certifies
    assert report.claimed_distance == d + 2
    assert report.witnesses and "FAIL" in report.render()


def test_zero_errors_passes_trivially():
    report = verify_code(toy_code(), 0)
    assert report.passed and report.certified_distance == 1


def test_toy_code_fails_at_one_error_with_cross_witness():
    report = verify_code(toy_code(), 1)
    assert not report.passed and report.certified_distance == 1
    assert any(w.reason == "cross reduction is nonzero" for w in report.witnesses)
    w = report.witnesses[0]
    assert str(w.subset) in w.render()


def test_pair_scans_and_cross_witnesses_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma (numpy 2.4), a cost of every process
    script = """
import sys
from oaqec import arrays
from oaqec.constructions import bush
from oaqec.synthesis import QuantumCode, make_code_params
from oaqec.verify import verify_code

A = arrays.certify(bush(4, 2), 2)
calls = []
real = arrays.distance_profile
arrays.distance_profile = lambda A: calls.append(A) or real(A)
assert arrays.minimal_distance(A) == 4 and len(calls) == 1  # a pair scan
code = QuantumCode(make_code_params(2, 0, (2, 2), 2), [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
report = verify_code(code, 1)
assert any(w.reason == "cross reduction is nonzero" for w in report.witnesses)
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(oaqec.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_single_ket_state_splits_the_two_modes():
    text = "QKET 4 1\n2 2 2 2\n|0,0,0,0>\n"
    code = code_from_ket_text(text, 1)
    strict = verify_code(code, 1, "strict-uniform")
    relaxed = verify_code(code, 1, "definition-5")
    assert not strict.passed
    assert any("divisible" in w.reason for w in strict.witnesses)
    assert relaxed.passed


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        verify_code(toy_code(), 1, "bogus")
    with pytest.raises(ValueError):
        verify_code(toy_code(), -1)


def test_corrupted_code_yields_witnesses_and_lower_certificate():
    code, d = load_fixture("qmds_5_1_3_12")
    bad = corrupt(code)
    report = verify_code(bad, d)
    assert not report.passed
    assert report.certified_distance <= d
    assert report.witnesses


# --- decision kernel against the naive oracle ------------------------------------


def naive_subset_passes(code, S, mode):
    """The reduction conditions on one subset, from brute-force pair counts."""
    n, K = code.params.n, code.params.K
    block = code.kets_per_state
    for i, j in itertools.combinations(range(K), 2):
        if naive_cross_counts(code.basis[i], code.basis[j], S, n):
            return False
    selves = [naive_cross_counts(state, state, S, n) for state in code.basis]
    if mode == "definition-5":
        return all(counts == selves[0] for counts in selves)
    levels = math.prod(code.params.alphabets[c] for c in S)
    if block % levels:
        return False
    uniform = {(x, x): block // levels for x in itertools.product(
        *(range(code.params.alphabets[c]) for c in S))}
    return all(counts == uniform for counts in selves)


def unrestricted_check_subset(code, S, mode, cap=4):
    """The exact witness path on every self reduction, then every cross
    pair, until cap witnesses: what the flagged path must reproduce."""
    K = code.params.K
    block = code.kets_per_state
    out = []
    reference = None
    for i in range(K):
        M = reduced_cross_matrix(code, i, i, S)
        assert sum(diagonal(M).values()) == block
        if mode == "strict-uniform":
            levels = math.prod(code.params.alphabets[c] for c in S)
            uniform, rest = divmod(block, levels)
            if rest:
                out.append(ReductionWitness(S, i, i, None, None, block, levels,
                                            "state size not divisible by the level count"))
            else:
                for (x, y), v in sorted(off_diagonal(M).items()):
                    out.append(ReductionWitness(S, i, i, x, y, v, 0,
                                                "off-diagonal reduction entry"))
                diag = diagonal(M)
                if len(diag) != levels:
                    missing = levels - len(diag)
                    out.append(ReductionWitness(S, i, i, None, None, 0, uniform,
                                                f"{missing} level tuples never occur"))
                for x, v in sorted(diag.items()):
                    if v != uniform:
                        out.append(ReductionWitness(S, i, i, x, x, v, uniform,
                                                    "nonuniform diagonal entry"))
        else:
            if reference is None:
                reference = M.counts
            elif M.counts != reference:
                keys = set(M.counts) | set(reference)
                x, y = min(k for k in keys
                           if M.counts.get(k, 0) != reference.get(k, 0))
                out.append(ReductionWitness(S, i, i, x, y, M.counts.get((x, y), 0),
                                            reference.get((x, y), 0),
                                            "reduction differs from state 0"))
        if len(out) >= cap:
            return out[:cap]
    for i in range(K):
        for j in range(i + 1, K):
            M = reduced_cross_matrix(code, i, j, S)
            if M.counts:
                (x, y), v = sorted(M.counts.items())[0]
                out.append(ReductionWitness(S, i, j, x, y, v, 0,
                                            "cross reduction is nonzero"))
                if len(out) >= cap:
                    return out[:cap]
    return out


def unrestricted_witnesses(code, per_subset, mode):
    """The first 8 witnesses of the unrestricted path on the failing subsets
    of the level-d verdicts, as verify_code must report them."""
    witnesses = []
    for S, ok in per_subset:
        if not ok and len(witnesses) < 8:
            witnesses.extend(unrestricted_check_subset(code, S, mode))
    return tuple(witnesses[:8])


def naive_report(code, d, mode):
    """(per_subset, certified_distance, witnesses) as verify_code must give
    them: verdicts from the oracle, witnesses from the unrestricted exact dict
    path on the first failing subsets of level d."""
    level_ok = []
    per_subset, witnesses = [], ()
    for dp in range(1, d + 1):
        verdicts = [(S, naive_subset_passes(code, S, mode))
                    for S in itertools.combinations(range(code.params.n), dp)]
        level_ok.append(all(ok for _, ok in verdicts))
        if dp == d:
            per_subset = verdicts
            witnesses = unrestricted_witnesses(code, verdicts, mode)
    certified = next((k for k, ok in enumerate(level_ok) if not ok), d)
    return tuple(per_subset), certified + 1, witnesses


def assert_matches_oracle(code, ds=None):
    for mode in MODES:
        for d in range(code.params.n + 1) if ds is None else ds:
            report = verify_code(code, d, mode)
            per_subset, certified, witnesses = naive_report(code, d, mode)
            assert report.per_subset == per_subset
            assert report.certified_distance == certified
            assert report.witnesses == witnesses
            assert report.passed == (certified == d + 1)


def mutant(code, si, ki, column, delta):
    """The code with one ket changed in one coordinate, or None when the new
    word is already a ket."""
    ket = code.basis[si][ki]
    s = code.params.alphabets[column]
    cand = ket[:column] + ((ket[column] + 1 + delta % (s - 1)) % s,) + ket[column + 1:]
    if any(cand in state for state in code.basis):
        return None
    basis = [list(state) for state in code.basis]
    basis[si][ki] = cand
    return QuantumCode(code.params, basis)


def divmod_digits(word, alphabets):
    """The mixed-radix digits of word, last column least significant."""
    digits = []
    for s in reversed(alphabets):
        word, x = divmod(word, s)
        digits.append(x)
    return tuple(digits[::-1])


REAL_CODES = (theorem_5s2(2, [2]), theorem_tn(4, 1, 1, [2]),
              theorem_tn(4, 1, 1, [2, 2]))


@st.composite
def small_codes(draw):
    """Random codes (K 1-6, n <= 5, alphabets 2-4, disjoint equal-size ket
    sets), or a small emitted code with one ket moved.  With K >= 5, a
    subset whose level count does not divide the state size fails every
    state, past the cap of _SUBSET_WITNESSES."""
    if draw(st.booleans()):
        code = draw(st.sampled_from(REAL_CODES), label="code")
        si = draw(st.integers(0, code.params.K - 1), label="state")
        ki = draw(st.integers(0, code.kets_per_state - 1), label="ket")
        column = draw(st.integers(0, code.params.n - 1), label="column")
        moved = mutant(code, si, ki, column, draw(st.integers(0, 2), label="delta"))
        return code if moved is None else moved
    n = draw(st.integers(1, 5), label="n")
    alphabets = tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
    words = math.prod(alphabets)
    K = draw(st.integers(1, min(6, words)), label="K")
    block = draw(st.integers(1, min(6, words // K)), label="block")
    picks = draw(st.lists(st.integers(0, words - 1), min_size=K * block,
                          max_size=K * block, unique=True))
    kets = [divmod_digits(w, alphabets) for w in picks]
    params = make_code_params(n, 0, alphabets, K)
    return QuantumCode(params, [kets[i * block:(i + 1) * block] for i in range(K)])


@settings(max_examples=200, deadline=None)
@given(code=small_codes())
def test_decision_kernel_matches_naive_oracle_and_exact_witnesses(code):
    assert_matches_oracle(code)


def test_single_state_code_passes_definition_5_at_every_level():
    code = REAL_CODES[0]
    assert code.params.K == 1
    assert_matches_oracle(code)
    assert verify_code(code, code.params.n, "definition-5").passed


def test_state_size_not_divisible_by_level_count():
    params = make_code_params(2, 0, (4, 2), 2)
    code = QuantumCode(params, [[(0, 0), (1, 1)], [(2, 0), (3, 1)]])
    report = verify_code(code, 1, "strict-uniform")
    assert report.per_subset == (((0,), False), ((1,), True))
    assert any("divisible" in w.reason for w in report.witnesses)
    assert_matches_oracle(code)


@pytest.mark.parametrize("basis,verdicts", [
    # both states collide with themselves off column 1 and agree
    ([[(0, 0), (0, 1)], [(1, 0), (1, 1)]], (((0,), False), ((1,), True))),
    # only state 0 collides off column 1, so the self reductions differ
    ([[(0, 0), (0, 1)], [(1, 0), (2, 1)]], (((0,), False), ((1,), False))),
])
def test_definition_5_with_kets_of_one_state_colliding(basis, verdicts):
    alphabets = (max(k[0] for s in basis for k in s) + 1, 2)
    code = QuantumCode(make_code_params(2, 0, alphabets, 2), basis)
    with mock.patch.object(verify, "_explain_level", wraps=verify._explain_level) as exact:
        report = verify_code(code, 1, "definition-5")
    assert report.per_subset == verdicts
    # the collision on (1,) is decided by the exact path, whose witnesses
    # are reused: no subset goes through it twice
    checked = [S for call in exact.call_args_list for S in call.args[1]]
    assert (1,) in checked and len(checked) == len(set(checked))
    assert_matches_oracle(code)


TERNARY_64 = divmod_digits(2 ** 64, (3,) * 64)


@pytest.mark.parametrize("basis,passed", [
    # balanced columns, no two kets agree on 63 columns
    ([[(a,) * 64 for a in range(3)],
      [tuple((c + a) % 3 for c in range(64)) for a in range(3)]], True),
    # state 1's first ket agrees with (0,)*64 everywhere but column 5
    ([[(a,) * 64 for a in range(3)],
      [tuple(int(c == 5) for c in range(64))]
      + [tuple((c + a) % 3 for c in range(64)) for a in (1, 2)]], False),
    # base-3 values 0 and 2^64: equal modulo 2^64, different as words
    ([[(0,) * 64], [TERNARY_64]], False),
])
def test_complement_keys_beyond_int64(basis, passed):
    # every complement of one column spans 3^63 > 2^63 words, more than a
    # mixed-radix int64 key could hold
    code = QuantumCode(make_code_params(64, 1, (3,) * 64, 2), basis)
    assert_matches_oracle(code, (1,))
    report = verify_code(code, 1, "definition-5")
    assert report.passed == passed
    assert dict(report.per_subset)[(0,)]  # no collision off column 0


@pytest.mark.parametrize("s, basis", [
    # uint64 kets: as float64 digits, 2^60 and 2^60 + 1 would be one key
    (2 ** 61, [[(0, 2 ** 60, 0)], [(0, 2 ** 60 + 1, 0)]]),
    # a re-ranked key times the alphabet 2^62 would wrap around int64
    (2 ** 62, [[(0, i * 2 ** 59, 0) for i in range(4)],
               [(0, i * 2 ** 59, 0) for i in range(4, 8)]]),
], ids=["uint64-digits", "ranks-times-alphabet"])
def test_slice_keys_stay_exact_on_huge_alphabets(s, basis):
    code = QuantumCode(make_code_params(3, 1, (s,) * 3, 2), basis)
    assert code.kets.dtype == arrays.storage_dtype((s,) * 3)
    assert_matches_oracle(code, (1,))
    # no two kets agree off column 0, and every state reads 0 there
    assert dict(verify_code(code, 1, "definition-5").per_subset)[(0,)]


@settings(max_examples=100, deadline=None)
@given(code=small_codes(), key_max=st.sampled_from((1, 30)))
def test_decision_kernel_stays_exact_when_keys_re_rank(code, key_max):
    # a small key cap makes _slice_keys re-rank its keys, and at 1 the
    # values of every column, on small codes
    with mock.patch.object(verify, "_KEY_MAX", key_max):
        assert_matches_oracle(code)


@settings(max_examples=100, deadline=None)
@given(code=small_codes(), split=st.booleans())
def test_level_kernel_stays_exact_across_chunk_boundaries(code, split):
    # one subset per chunk, or the widest level split across two chunks
    # (in definition-5 mode, which keys every subset when K > 1)
    widest = math.comb(code.params.n, code.params.n // 2)
    per_chunk = -(-widest // 2)
    assert per_chunk < widest or widest == 1
    cells = per_chunk * len(code.kets) if split else 1
    with mock.patch.object(verify, "_CHUNK_CELLS", cells):
        assert_matches_oracle(code)


#: definition-5 verdicts at level 2, in combinations order: failing,
#: failing, undecided by the counts, failing, undecided, failing
MIXED_DEF5 = QuantumCode(make_code_params(4, 0, (3, 2, 3, 3), 2),
                         [[(0, 0, 1, 2), (0, 1, 0, 2), (2, 0, 1, 1)],
                          [(1, 0, 0, 1), (1, 0, 0, 2), (2, 0, 2, 1)]])
#: the largest complement key off (0, 1) equals the smallest off (0, 2), 1 for
#: both: one pass over the two subsets must still keep their runs apart
EQUAL_KEYS_ACROSS_SUBSETS = QuantumCode(make_code_params(4, 0, (3, 2, 2, 2), 3),
                                        [[(0, 1, 0, 0)], [(1, 0, 0, 1)], [(1, 1, 0, 1)]])


def test_undecided_and_failing_subsets_share_one_witness_pass():
    verdicts = [passed for _, passed in verify._decide_level(MIXED_DEF5, 2, "definition-5")]
    assert verdicts == [False, False, None, False, None, False]
    with mock.patch.object(verify, "_explain_level", wraps=verify._explain_level) as explain:
        verify_code(MIXED_DEF5, 2, "definition-5")
    # the failing level 2 first, then the undecided subset of level 1
    assert [call.args[1] for call in explain.call_args_list] == [
        list(itertools.combinations(range(4), 2)), [(3,)]]


@settings(max_examples=100, deadline=None)
@given(code=small_codes(), per_chunk=st.sampled_from((1, 2, None)))
@example(code=MIXED_DEF5, per_chunk=1)
@example(code=MIXED_DEF5, per_chunk=2)
@example(code=MIXED_DEF5, per_chunk=None)
@example(code=EQUAL_KEYS_ACROSS_SUBSETS, per_chunk=2)
def test_witness_pass_stays_exact_across_chunk_boundaries(code, per_chunk):
    # a chunk of one subset, of two, or of every subset of the widest level
    widest = math.comb(code.params.n, code.params.n // 2)
    cells = (widest if per_chunk is None else per_chunk) * len(code.kets)
    with mock.patch.object(verify, "_CHUNK_CELLS", cells):
        assert_matches_oracle(code)


@pytest.mark.parametrize("name", ["qmds_8_8_3", "mixed-def5"])
def test_a_failing_report_makes_one_witness_pass_per_level_that_needs_one(name):
    code = MIXED_DEF5 if name == "mixed-def5" else load_fixture(name)[0]
    for mode in MODES:
        with mock.patch.object(verify, "_explain_level",
                               wraps=verify._explain_level) as explain:
            report = verify_code(code, 3, mode)
        assert not report.passed and report.witnesses
        # level 3 fails and is explained; a level below needs a pass only
        # for the subsets its counts leave undecided
        needs = [3] + [dp for dp in (1, 2) if any(
            passed is None for _, passed in verify._decide_level(code, dp, mode))]
        assert [len(call.args[1][0]) for call in explain.call_args_list] == needs
        if (name, mode) == ("mixed-def5", "definition-5"):
            assert needs == [3, 1, 2]


def naive_cross_witnesses(code, S):
    """(i, j, x, y, count) of the first entry of every nonzero cross
    reduction on S, pairs ascending, from brute-force pair counts."""
    out = []
    for i, j in itertools.combinations(range(code.params.K), 2):
        counts = naive_cross_counts(code.basis[i], code.basis[j], S, code.params.n)
        if counts:
            (x, y), v = min(counts.items())
            out.append((i, j, x, y, v))
    return out


@settings(max_examples=200, deadline=None)
@given(code=small_codes(), data=st.data())
def test_cross_witnesses_match_naive_pair_counts(code, data):
    n = code.params.n
    S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="S")))
    mode = data.draw(st.sampled_from(MODES), label="mode")
    got, = verify._explain_level(code, [S], mode)
    cross = [(w.i, w.j, w.x, w.y, w.count) for w in got
             if w.reason == "cross reduction is nonzero"]
    want = naive_cross_witnesses(code, S)
    # the cross witnesses follow the self ones and fill the cap in order
    assert got[len(got) - len(cross):] == [
        ReductionWitness(S, i, j, x, y, v, 0, "cross reduction is nonzero")
        for i, j, x, y, v in cross]
    assert len(got) <= verify._SUBSET_WITNESSES
    assert cross == want[:len(cross)]
    if len(got) < verify._SUBSET_WITNESSES:
        assert cross == want


@st.composite
def codes_and_subsets(draw):
    """A code of small_codes() and a nonempty coordinate subset of it."""
    code = draw(small_codes(), label="code")
    S = draw(st.sets(st.integers(0, code.params.n - 1), min_size=1), label="S")
    return code, tuple(sorted(S))


@settings(max_examples=200, deadline=None)
@given(case=codes_and_subsets(), mode=st.sampled_from(MODES))
@example(case=(toy_code(), (0,)), mode="strict-uniform")
@example(case=(toy_code(), (0,)), mode="definition-5")
def test_cross_counts_transpose_and_cross_witnesses_read_them(case, mode):
    # swapping the states transposes the brute-force counts, and each cross
    # witness of _explain_level reads an entry of them, from either side
    code, S = case
    n = code.params.n
    counts = {(i, j): naive_cross_counts(code.basis[i], code.basis[j], S, n)
              for i in range(code.params.K) for j in range(code.params.K) if i != j}
    for (i, j), M in counts.items():
        assert M == {(y, x): v for (x, y), v in counts[j, i].items()}
    exact, = verify._explain_level(code, [S], mode)
    cross = [w for w in exact if w.reason == "cross reduction is nonzero"]
    for w in cross:
        assert w.i < w.j and w.count > 0
        assert counts[w.i, w.j][w.x, w.y] == counts[w.j, w.i][w.y, w.x] == w.count
    if code.basis == toy_code().basis and S == (0,):
        assert cross and counts[0, 1] == {((0,), (1,)): 1, ((1,), (0,)): 1}


@pytest.mark.parametrize("alphabets,basis", [
    # off column 0, every run holds one ket of each of the three states
    ((4, 2), [[(0, 0), (3, 1)], [(1, 0), (0, 1)], [(2, 0), (1, 1)]]),
    # one run holds two kets of each of three states, which collide within
    # their states too; the other run holds kets of two states
    ((3, 3, 2), [[(0, 0, 0), (0, 1, 0), (2, 2, 1)],
                 [(1, 0, 0), (1, 1, 0), (0, 2, 1)],
                 [(2, 0, 0), (2, 1, 0), (0, 0, 1)]]),
    # five states in one run off columns (0, 1), each with one ket there
    ((3, 4, 2), [[(a % 3, a // 3, 0), (a % 3, (a + 2) % 4, 1)] for a in range(5)]),
], ids=["three-states-per-run", "three-states-colliding-within", "five-states"])
def test_runs_holding_kets_of_three_or_more_states(alphabets, basis):
    n = len(alphabets)
    code = QuantumCode(make_code_params(n, 0, alphabets, len(basis)), basis)
    comp = tuple(range(1, n))
    states_per_run = {}
    for i, state in enumerate(code.basis):
        for ket in state:
            states_per_run.setdefault(tuple(ket[c] for c in comp), set()).add(i)
    assert max(map(len, states_per_run.values())) >= 3
    assert_matches_oracle(code)


@pytest.mark.parametrize("code", [mutant(REAL_CODES[1], 1, 2, 0, 0),
                                  mutant(REAL_CODES[2], 0, 3, 2, 1)],
                         ids=["tn-4-1-1-2", "tn-4-1-1-2-2"])
def test_witnesses_stay_exact_when_s_keys_re_rank(code):
    # below _KEY_MAX = 5 every key of two or more columns of 4 levels is
    # re-ranked, so the witnesses' level tuples come from re-ranked S-keys;
    # on all columns, 16 kets leave gaps that re-ranking closes
    S = tuple(range(code.params.n))
    plain = verify._slice_keys(code.kets, code.params.alphabets, S)
    with mock.patch.object(verify, "_KEY_MAX", 5):
        ranked = verify._slice_keys(code.kets, code.params.alphabets, S)
        assert not np.array_equal(ranked, plain)
        assert_matches_oracle(code)
        assert any(len(w.subset) > 1 and w.x is not None
                   for d in range(2, code.params.n + 1) for mode in MODES
                   for w in verify_code(code, d, mode).witnesses)


def test_cap_holds_when_no_level_count_divides_the_state_size():
    # ((5,12,2))_{12^3 6^1 2^1}: K = 12 states of 12 kets, and no pair of
    # the 12-level columns has a level count dividing 12
    code = theorem_tn(12, 1, 1, [6, 2])
    assert code.params.K == 12 and code.kets_per_state == 12
    exact, = verify._explain_level(code, [(0, 1)], "strict-uniform")
    assert [w.i for w in exact] == [0, 1, 2, 3]
    report = verify_code(code, 2, "strict-uniform")
    assert [w.subset for w in report.witnesses] == [(0, 1)] * 4 + [(0, 2)] * 4
    assert report.render().count("not divisible") == verify._REPORT_WITNESSES


def test_failing_verdict_without_exact_witness_is_an_internal_fault():
    code, d = load_fixture("qmds_4_12_2")
    with mock.patch.object(verify, "_explain_level",
                           side_effect=lambda code, subsets, mode: [[] for _ in subsets]):
        with pytest.raises(ClaimFailed):
            verify_code(code, d + 1)


def test_a_failing_claimed_level_decides_the_levels_below_bottom_up():
    code, _ = load_fixture("qmds_8_8_3")
    for mode in MODES:
        report, levels = decided_levels(code, 3, mode)
        assert not report.passed and report.certified_distance == 3
        assert levels == [3, 1, 2]
        assert report.subsets_checked == 8 + 28 + 56
        assert len(report.per_subset) == 56 and report.witnesses


def test_a_level_passing_above_a_failing_one_is_still_refused():
    code, _ = load_fixture("qmds_8_8_3")
    real = verify._decide_level

    def skewed(code, dp, mode):
        # level 3 as it is (it fails), level 1 failing, level 2 passing
        if dp == 3:
            return real(code, dp, mode)
        return [(S, dp == 2) for S in itertools.combinations(range(code.params.n), dp)]

    with mock.patch.object(verify, "_decide_level", side_effect=skewed) as decide:
        with pytest.raises(ClaimFailed, match="a level passed above a failing one"):
            verify_code(code, 3)
    assert [call.args[1] for call in decide.call_args_list] == [3, 1, 2]


def emitted_codes_and_mutants():
    """The 55 emitted codes of acceptance criterion 7 and, for each of the
    seeds 1-3, two one-ket mutants of each drawn in turn from one rng."""
    pool = emitted_codes()
    cases = list(pool)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        cases += [corrupted(code, rng) for code in pool for _ in range(2)]
    return cases


def test_flagged_witnesses_equal_the_unrestricted_exact_path():
    checked = failing = 0
    for code in emitted_codes_and_mutants():
        d = code.params.d_plus_1 - 1
        for level in (d, d + 1):
            if level > code.params.n:
                continue
            for mode in MODES:
                report = verify_code(code, level, mode)
                want = unrestricted_witnesses(code, report.per_subset, mode)
                assert report.witnesses == want, (code.params.code_string(), level, mode)
                checked += 1
                failing += not report.passed
    assert checked == 4 * 385 and failing > checked // 2


def swapped(code):
    """Copy of the code with the first kets of states 0 and 1 exchanged."""
    basis = [list(state) for state in code.basis]
    basis[0][0], basis[1][0] = basis[1][0], basis[0][0]
    return QuantumCode(code.params, basis, code.provenance)


def test_swapped_ket_mutants_fail_the_per_state_checks():
    # the swap keeps the parent, the union of the states, and so its
    # distance: only the per-state checks can see it
    pool = [code for code in emitted_codes() if code.params.K >= 2]
    assert len(pool) == 21
    for code in pool:
        d = code.params.d_plus_1 - 1
        bad = swapped(code)
        for mode in MODES:
            report = verify_code(bad, d, mode)
            assert not report.passed, (code.params.code_string(), mode)
            assert report.witnesses == unrestricted_witnesses(bad, report.per_subset, mode)
        crossed = cross_validate(bad)
        assert crossed.parent_md >= d + 1 and not crossed.blocks_balanced
        assert not crossed.quantum_pass and not crossed.combinatorial_pass


# --- cross validation --------------------------------------------------------------


def test_cross_validation_requires_provenance():
    code, _ = load_fixture("qmds_4_12_2")
    with pytest.raises(ProvenanceMissing):
        cross_validate(code)


def test_cross_validation_agrees_on_driver_output():
    for code in (theorem_5s2(2, [2]), theorem_tn(12, 1, 1, [2])):
        crossed = cross_validate(code)
        assert crossed.quantum_pass and crossed.combinatorial_pass
        assert crossed.agree
        assert crossed.parent_md >= code.params.d_plus_1
        assert "agree" in crossed.render()


def test_cross_validation_rejects_corruption_on_both_sides():
    code = theorem_tn(12, 1, 1, [2])
    crossed = cross_validate(corrupt(code))
    assert not crossed.quantum_pass
    assert not crossed.combinatorial_pass
    assert crossed.agree  # both oracles fail for the same reason
    assert "DISAGREE" not in crossed.render()


def test_cross_validation_decides_block_balance_without_a_witness():
    code = corrupt(theorem_tn(12, 1, 1, [2]))
    rebuilt = arrays.MixedLevelArray(code.kets, code.params.alphabets)
    with mock.patch.object(arrays, "_subset_witness",
                           wraps=arrays._subset_witness) as witness:
        crossed = cross_validate(code)
    assert witness.call_count == 0
    ok, _ = arrays.is_orthogonal_array(rebuilt, 1, code.params.K)
    assert not ok and crossed.blocks_balanced == ok


def test_cross_validation_checks_each_state_not_their_union():
    # the union of the two states is OA(4, 3, 2, 2), whose distance is 2,
    # but column 0 is constant on each state
    A = bush(2, 2).sorted_rows()
    code = code_from_partitioned_oa(OrthogonalPartition(A, 2, 1, budget=0), 2)
    crossed = cross_validate(code)
    assert crossed.parent_md == 2 and not crossed.blocks_balanced
    assert not crossed.combinatorial_pass and not crossed.quantum_pass


def test_cross_validation_keeps_the_strict_uniform_report():
    code = theorem_tn(12, 1, 1, [2])
    crossed = cross_validate(code)
    assert crossed.report == verify_code(code, 1, "strict-uniform")
    assert crossed.quantum_pass == crossed.report.passed
