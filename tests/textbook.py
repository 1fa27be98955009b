"""The four schemes in textbook form: the model that every fast path in dvsig must match.

Each function is its scheme docstring's equations, with the builtin pow only and H =
msghash.hash_to_zq.  SCHEMES holds, per scheme, sign and simulate (params, a, b, m,
randomness, mode), which take keys as oracle.SCHEMES does and give a signature's fields, or
None where Saeednia's r is 0, and open (params, y_a, x_b, m, fields, mode), which gives the
residue it accepts or None, and the (m, u) it hashes or None.  An opener checks, in the
docstrings' order: r and s in [0, q) (Saeednia's t in [1, q)), the unit fields in [1, p), t
a nontrivial order-q element, the UDVS e an order-q element, y_A in [1, p).  It is the plain
paper form, so no opener tests y_A**q = 1.
"""

from collections import namedtuple
from functools import partial

from dvsig.msghash import hash_to_zq


def small_order_element(params, ell):
    """An element h != 1 of prime order ell, for ell dividing (p - 1) / q."""
    p = params.p
    assert (p - 1) // params.q % ell == 0
    return next(h for a in range(2, p) if (h := pow(a, (p - 1) // ell, p)) != 1)


def saeednia_sign(params, a, b, m, rand, mode):
    """c = y_B**k, r = H(m, c), s = k * t**-1 - r * x_A (mod q)."""
    p, q, (k, t) = params.p, params.q, rand
    r = hash_to_zq(m, pow(b.y, k, p), params, mode)
    return (r, (k * pow(t, -1, q) - r * a.x) % q, t) if r else None


def saeednia_open(params, y_a, x_b, m, sig, mode):
    """Accept iff r = H(m, c) for c = (g**s * y_A**r)**(t * x_B)."""
    p, q, (r, s, t) = params.p, params.q, sig
    if not (0 <= r < q and 0 <= s < q and 1 <= t < q and 1 <= y_a < p):
        return None, None
    c = pow(pow(params.g, s, p) * pow(y_a, r, p) % p, t * x_b, p)
    return (m if hash_to_zq(m, c, params, mode) == r else None), (m, c)


def saeednia_simulate(params, a, b, m, rand, mode):
    """c = g**s' * y_A**r', r = H(m, c), l = r' / r, s = s' / l, t = l / x_B (mod q)."""
    p, q, (s_rand, r_rand) = params.p, params.q, rand
    r = hash_to_zq(m, pow(params.g, s_rand, p) * pow(a.y, r_rand, p) % p, params, mode)
    if not r:
        return None
    ell = r_rand * pow(r, -1, q) % q
    return r, s_rand * pow(ell, -1, q) % q, ell * pow(b.x, -1, q) % q


def recovery_sign(scheme, params, a, b, m, rand, mode):
    """t = g**k1, c = m * B**k2, r = H(m, g**k2), s = k1**-1 * (x_A * r - k2), with B = y_B
    for Lee-Chang and g for PV; UDVS designates that PV signature with a third draw, d."""
    p, q, g, (k1, k2, *d) = params.p, params.q, params.g, rand
    r = hash_to_zq(m, pow(g, k2, p), params, mode)
    base = b.y if scheme == "leechang" else g
    sig = pow(g, k1, p), m * pow(base, k2, p) % p, r, pow(k1, -1, q) * (a.x * r - k2) % q
    return designate(params, a.y, b.y, sig, d[0], mode) if d else sig


def recover(params, scheme, y_a, x_b, sig):
    """(m, g**k2), with no check: g**-k2 = t**s * y_A**-r, and m = c * g**-k2 for PV,
    c * (g**-k2)**x_B for Lee-Chang, w * g**-k2 * e**x_B for UDVS."""
    p, (t, c, r, s) = params.p, sig[:4]
    opened = pow(t, s, p) * pow(y_a, -r, p) % p
    unblind = {"leechang": lambda: pow(opened, x_b, p), "pv": lambda: opened,
               "udvs": lambda: opened * pow(sig[4], x_b, p)}[scheme]()
    return c * unblind % p, pow(opened, -1, p)


def recovery_open(scheme, params, y_a, x_b, m, sig, mode):
    """Accept the recovered m iff r = H(m, g**k2)."""
    p, q, (t, c, r, s), e = params.p, params.q, sig[:4], sig[4:]
    if not (0 <= r < q and 0 <= s < q and all(1 <= v < p for v in (c, *e)) and 1 < t < p
            and pow(t, q, p) == 1 and all(pow(v, q, p) == 1 for v in e) and 1 <= y_a < p):
        return None, None
    m, u = recover(params, scheme, y_a, x_b, sig)
    return (m if hash_to_zq(m, u, params, mode) == r else None), (m, u)


def designate(params, y_a, y_b, pv_sig, d, mode):
    """(t, w, r, s, e) with e = g**-d and w = c * y_B**d, once PV opens pv_sig; else None."""
    if recovery_open("pv", params, y_a, None, None, pv_sig, mode)[0] is None:
        return None
    p, (t, c, r, s) = params.p, pv_sig
    return t, c * pow(y_b, d, p) % p, r, s, pow(params.g, -d, p)


def recovery_simulate(params, a, b, m, rand, mode):
    """t = y_A**(w1**-1), u = y_A**(w1**-1 * w2), r = H(m, u), s = w1 * r - w2; from (w1, w2)
    Lee-Chang's c = m * u**x_B, and from (w1, w2, d') UDVS's c' = m * u, self-designated as
    e' = g**-d', w' = c' * g**(x_B * d')."""
    p, q, g, (w1, w2, *d) = params.p, params.q, params.g, rand
    u = pow(a.y, pow(w1, -1, q) * w2, p)
    r = hash_to_zq(m, u, params, mode)
    t, s = pow(a.y, pow(w1, -1, q), p), (w1 * r - w2) % q
    if not d:
        return t, m * pow(u, b.x, p) % p, r, s
    return t, m * u * pow(g, b.x * d[0], p) % p, r, s, pow(g, -d[0], p)


Model = namedtuple("Model", "sign open simulate", defaults=[None])
SCHEMES = {
    "saeednia": Model(saeednia_sign, saeednia_open, saeednia_simulate),
    **{name: Model(partial(recovery_sign, name), partial(recovery_open, name), simulate)
       for name, simulate in (("leechang", recovery_simulate), ("pv", None), ("udvs", recovery_simulate))},
}
