import random

import pytest
from hypothesis import given, strategies as st

from dvsig import wirefmt
from dvsig.errors import Malformed, OutOfRange
from dvsig.groupparams import GroupParams
from dvsig.keys import KeyPair, PublicKey, SubgroupKey, derive_public, in_subgroup, keygen, validate_public
from dvsig.modmath import FixedBase


def test_derive_public_toy_values(toy):
    assert derive_public(toy, 3) == 18  # 4**3 = 64 = 2*23 + 18
    assert derive_public(toy, 5) == 12  # 4**5 = 4**4 * 4 = 3*4
    assert derive_public(toy, 1) == toy.g


def test_derive_public_range_errors(toy):
    with pytest.raises(OutOfRange):
        derive_public(toy, 0)
    with pytest.raises(OutOfRange):
        derive_public(toy, toy.q)


def test_keygen_never_emits_zero_exponent(toy):
    for seed in range(200):
        pair = keygen(toy, random.Random(seed))
        assert 1 <= pair.x < toy.q
        assert pair.y == derive_public(toy, pair.x)
        assert pair.y != 1


@given(st.integers(min_value=0, max_value=2**32))
def test_keygen_public_matches_secret(toy, seed):
    pair = keygen(toy, random.Random(seed))
    assert derive_public(toy, pair.x) == pair.y


def test_keygen_role_label(toy):
    pair = keygen(toy, random.Random(1), role="signer")
    assert pair.role == "signer"
    assert pair.public().y == pair.y
    assert pair.secret().x == pair.x


@pytest.mark.parametrize("group, keys", [("toy", 0), ("midsize", 20), ("big", 3)])
def test_validate_public_passes_every_key_keygen_makes(request, group, keys):
    """On toy23 every key there is (x in [1, q)); elsewhere `keys` seeded ones.  Each comes
    back as a SubgroupKey of the group."""
    params = request.getfixturevalue(group)
    if keys:
        ys = [keygen(params, random.Random(seed)).y for seed in range(keys)]
    else:
        ys = [derive_public(params, x) for x in range(1, params.q)]
    for y in ys:
        key = validate_public(params, y)
        assert key == y and type(key) is SubgroupKey and key.group == (params.p, params.q)


OUTSIDE = {
    "zero": lambda params, y: 0,
    "one": lambda params, y: 1,
    "p": lambda params, y: params.p,
    "y+p": lambda params, y: y + params.p,
    "p-1": lambda params, y: params.p - 1,
    "p-y": lambda params, y: params.p - y,  # order 2q: (-y)**q = -1
}


@pytest.mark.parametrize("name", OUTSIDE)
@pytest.mark.parametrize("group", ["toy", "midsize"])
def test_validate_public_refuses_what_is_no_nontrivial_subgroup_element(request, group, name):
    params = request.getfixturevalue(group)
    y = OUTSIDE[name](params, keygen(params, random.Random(5)).y)
    message = "outside" if name in ("zero", "one", "p", "y+p") else "order-q"
    with pytest.raises(Malformed, match=message):
        validate_public(params, y)


def test_only_validate_public_makes_a_key_in_subgroup_trusts(toy, powers):
    """in_subgroup passes a key without a power only where validate_public (so keygen) made it
    in that group: every other way to hold the same value, a key read from the wire included,
    costs the power, as does a key validated in toy23 and asked about under another group."""
    pair = keygen(toy, random.Random(3))
    assert type(pair.y) is SubgroupKey and powers.take(0, lambda: in_subgroup(toy, pair.y))
    assert powers.take(0, lambda: in_subgroup(toy, pair.public().y))
    y = int(pair.y)
    untested = {
        "PublicKey": PublicKey(y).y,
        "KeyPair": KeyPair(pair.x, y).y,
        "FixedBase": FixedBase(y),
        "SubgroupKey": SubgroupKey(y),
        "derive_public": derive_public(toy, pair.x),
        "wirefmt.loads": wirefmt.loads(wirefmt.encode(pair.public())).y,
        "armored": wirefmt.loads(wirefmt.armor(pair.public()).encode()).y,
    }
    for name, value in untested.items():
        assert value == y and powers.take(1, lambda: in_subgroup(toy, value)), name
    other = GroupParams(p=47, q=23, g=2)
    assert powers.take(1, lambda: in_subgroup(other, pair.y)) == (pow(y, 23, 47) == 1)

