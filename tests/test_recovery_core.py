"""Behaviour shared by the three users of the recovery core in sdvs_mr."""

import pytest

from dvsig.errors import InvalidSignature
from dvsig.msghash import HashMode
from dvsig.pv_scheme import PVSignature, psv
from dvsig.sdvs_mr import RecoverySignature, mr_recover_verify
from dvsig.udvs import DVSignature, dsv_recover

STUB = HashMode.STUB

# Worked vectors that accept under y_A = 18, x_B = 5 on toy23 (see the scheme tests).
VERIFIERS = {
    "psv": lambda toy, y: psv(toy, y, PVSignature(t=16, c=11, r=3, s=3), STUB),
    "mr_recover_verify": lambda toy, y: mr_recover_verify(
        toy, y, 5, RecoverySignature(t=16, c=21, r=3, s=3), STUB),
    "dsv_recover": lambda toy, y: dsv_recover(
        toy, y, 5, DVSignature(t=16, w=5, r=3, s=3, e=8), STUB),
}


# 0 and p would make y_A**r zero, which has no inverse; 5 lies outside the
# order-11 subgroup.  Each must reject, not fail with NonInvertible.
@pytest.mark.parametrize("y", [0, 23, 1, 5], ids=["zero", "p", "one", "non-subgroup"])
@pytest.mark.parametrize("verify", VERIFIERS.values(), ids=VERIFIERS.keys())
def test_degenerate_signer_key_rejects(toy, verify, y):
    with pytest.raises(InvalidSignature):
        verify(toy, y)
