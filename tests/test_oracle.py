import random
import tracemalloc
from collections import Counter
from dataclasses import astuple, fields, replace

import pytest
from conftest import subgroup

from dvsig.errors import GroupTooLarge, SchemeMismatch
from dvsig.groupparams import GroupParams
from dvsig.keys import KeyPair
from dvsig.msghash import raw_message
from dvsig.oracle import (
    SCHEME_LEECHANG,
    SCHEME_PV,
    SCHEME_SAEEDNIA,
    SCHEME_UDVS,
    SignatureMultiset,
    check_indistinguishable,
    enumerate_real,
    enumerate_simulated,
    forgery_acceptance,
    random_forgery,
    wrong_key_recovery_census,
)
from dvsig.pv_scheme import PVSignature
from dvsig.sdvs_mr import RecoverySignature


@pytest.fixture(scope="module")
def m7(toy):
    return raw_message(7, toy)


def test_enumeration_guard(big, big_signer, big_verifier):
    m = raw_message(7, big)
    with pytest.raises(GroupTooLarge):
        enumerate_real(big, big_signer, big_verifier, m, SCHEME_LEECHANG)
    with pytest.raises(GroupTooLarge):
        enumerate_simulated(big, big_signer, big_verifier, m, SCHEME_LEECHANG)
    with pytest.raises(GroupTooLarge):
        wrong_key_recovery_census(big, big_signer, big_verifier, m, SCHEME_LEECHANG)


def test_scheme_mismatch_raises(toy, toy_signer, toy_verifier, m7):
    lee = enumerate_real(toy, toy_signer, toy_verifier, m7, SCHEME_LEECHANG)
    dv = enumerate_simulated(toy, toy_signer, toy_verifier, m7, SCHEME_UDVS)
    with pytest.raises(SchemeMismatch):
        check_indistinguishable(lee, dv)
    with pytest.raises(SchemeMismatch):  # keys packed in another group's lanes
        check_indistinguishable(lee, SignatureMultiset(SCHEME_LEECHANG, 47))


def test_diff_report_lists_at_most_ten_tuples(toy):
    """Ten lines: the first multiset's extras, then the second's, each in ascending tuple
    order, with tuples that differ in more than their last field."""
    firsts = [(f0, 2, 3, f3) for f0 in (1, 0) for f3 in (4, 0, 2)]
    seconds = [(9, f1, 9, f3) for f1 in (2, 0, 1) for f3 in (1, 2, 0)]
    a, b = SignatureMultiset("leechang", toy.p), SignatureMultiset("leechang", toy.p)
    for multiset, tuples in ((a, firsts), (b, seconds)):
        for sig_tuple in tuples:
            multiset.add(RecoverySignature(*sig_tuple))
    report = check_indistinguishable(a, b)
    assert not report.equal
    assert report.lines == [f"only in first multiset: {t} x1" for t in sorted(firsts)] + [
        f"only in second multiset: {t} x1" for t in sorted(seconds)[:4]]


def test_diff_report_counts_multiplicity(toy):
    a, b = SignatureMultiset("pv", toy.p), SignatureMultiset("pv", toy.p)
    for multiset, n in ((a, 3), (b, 1)):
        for _ in range(n):
            multiset.add(PVSignature(1, 2, 3, 4))
    # toy23's p = 23 has 5 bits: one 5-bit lane per field, t most significant
    assert a.counts == Counter({0b00001_00010_00011_00100: 3})
    report = check_indistinguishable(a, b)
    assert not report.equal
    assert report.lines == ["only in first multiset: (1, 2, 3, 4) x2"]


@pytest.mark.parametrize("scheme", [SCHEME_SAEEDNIA, SCHEME_LEECHANG, SCHEME_PV, SCHEME_UDVS])
def test_multiset_keys_are_the_field_tuples(toy, scheme):
    """Each signature is counted under one key, which decodes to the tuple of its fields in
    field order.  A field outside [0, p) is refused, so no two signatures share a key."""
    sigs = [random_forgery(toy, scheme, random.Random(seed)) for seed in range(5)]
    multiset = SignatureMultiset(scheme, toy.p)
    for sig in sigs:
        multiset.add(sig)
    assert Counter(map(multiset.decode, multiset.counts.elements())) == Counter(
        astuple(sig) for sig in sigs)
    for name in (f.name for f in fields(sigs[0])):
        for value in (toy.p, -1):
            with pytest.raises(ValueError):
                multiset.add(replace(sigs[0], **{name: value}))
    assert multiset.total == len(sigs)


def test_enumeration_holds_at_most_128_bytes_per_signature():
    """A q = 23 group with a 16-bit p (a generate_params(5, 16) output): the UDVS walk keeps
    11,638 distinct signatures, and one packed int key each holds them in about 87 bytes
    apiece; a tuple of five fields held about 194."""
    params = GroupParams(p=50923, q=23, g=38806)
    signer, verifier = (KeyPair(x=x, y=pow(params.g, x, params.p)) for x in (3, 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        multiset = enumerate_real(params, signer, verifier, raw_message(7, params), SCHEME_UDVS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert multiset.total == len(multiset.counts) == 11_638
    assert held <= 128 * multiset.total


def test_unknown_scheme_rejected(toy, toy_signer, toy_verifier, m7):
    with pytest.raises(ValueError):
        enumerate_real(toy, toy_signer, toy_verifier, m7, "nope")
    with pytest.raises(ValueError):
        enumerate_simulated(toy, toy_signer, toy_verifier, m7, SCHEME_PV)


def test_random_forgery_components_in_range(toy):
    rng = random.Random(5)
    elements = set(subgroup(toy))
    for _ in range(50):
        sig = random_forgery(toy, SCHEME_LEECHANG, rng)
        assert sig.t in elements
        assert 1 <= sig.c < toy.p
        assert 0 <= sig.r < toy.q and 0 <= sig.s < toy.q
    sae = random_forgery(toy, SCHEME_SAEEDNIA, rng)
    assert 1 <= sae.t < toy.q


@pytest.mark.parametrize("scheme", [SCHEME_SAEEDNIA, SCHEME_LEECHANG, SCHEME_PV, SCHEME_UDVS])
def test_forgery_floor_on_toy_group(toy, toy_signer, toy_verifier, m7, scheme):
    accepted, trials = forgery_acceptance(
        toy, toy_signer, toy_verifier, m7, scheme, 2000, random.Random(scheme)
    )
    assert trials == 2000
    assert accepted / trials <= 2 / toy.q


def test_wrong_key_census_leechang(toy, toy_signer, toy_verifier, m7):
    census = wrong_key_recovery_census(toy, toy_signer, toy_verifier, m7, SCHEME_LEECHANG)
    assert census.cases == 110 * 9
    # recovery under a wrong key returns the true message exactly when the
    # blinding exponent k2 was zero (c carried the message in the clear)
    assert census.true_message == census.unblinded == 10 * 9
    assert census.hash_accepted / census.cases <= 2 / toy.q


def test_wrong_key_census_udvs(toy, toy_signer, toy_verifier, m7):
    census = wrong_key_recovery_census(toy, toy_signer, toy_verifier, m7, SCHEME_UDVS)
    assert census.cases == 1210 * 9
    assert census.true_message == census.unblinded == 110 * 9
    assert census.hash_accepted / census.cases <= 2 / toy.q


def test_census_rejects_non_recovery_scheme(toy, toy_signer, toy_verifier, m7):
    with pytest.raises(ValueError):
        wrong_key_recovery_census(toy, toy_signer, toy_verifier, m7, SCHEME_SAEEDNIA)
    for scheme in (SCHEME_PV, "bogus"):
        with pytest.raises(ValueError):
            wrong_key_recovery_census(toy, toy_signer, toy_verifier, m7, scheme)


# (cases, true_message, hash_accepted, unblinded), recorded from the
# census's earlier per-scheme loops.  On toy23 the hash accepts exactly
# the true messages; on (139, 23, 77) it accepts four times as many.
CENSUS = {
    ("toy23", SCHEME_LEECHANG): (990, 90, 90, 90),
    ("toy23", SCHEME_UDVS): (10890, 990, 990, 990),
    ("p139", SCHEME_LEECHANG): (10626, 462, 1848, 462),
    ("p139", SCHEME_UDVS): (244398, 10626, 42504, 10626),
}


@pytest.mark.parametrize("group, scheme", sorted(CENSUS))
def test_wrong_key_census_counts_exactly(group, scheme, toy, toy_signer, toy_verifier):
    if group == "toy23":
        params, signer, verifier = toy, toy_signer, toy_verifier
    else:
        params = GroupParams(p=139, q=23, g=77)
        signer, verifier = KeyPair(x=11, y=64), KeyPair(x=19, y=106)
    census = wrong_key_recovery_census(params, signer, verifier, raw_message(7, params), scheme)
    assert (census.cases, census.true_message, census.hash_accepted,
            census.unblinded) == CENSUS[group, scheme]
