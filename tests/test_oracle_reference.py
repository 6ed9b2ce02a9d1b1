"""Differential tests of the oracle against the routes it replaced.

`reference_sweep` evaluates the Hasse polynomial at every lambda in F_{p^2}
with numpy and maps the roots through j(lambda).  It is cubic in p, so
tier-1 runs it for every prime up to 200 and at 499 and 1009.  Tier-1 also
compares the 2-isogeny walk with the roots of ss_p(j) (`ss_p_reference`,
the test-side factorisation route) and with the Legendre-form route of
`hasse_reference` (roots of H_p by the same exact factorisation, mapped to
j) for every prime up to 500 (`test_oracle.py`).  The gates widen when
opted in, the sweep to every prime up to 500 and the two factorisation
routes to every prime up to 2000:

    GROSSLAT_ORACLE_REFERENCE=1 pytest tests/test_oracle_reference.py -m oracle_reference

numpy is only a test dependency; without it this module is skipped.
"""

import pytest

from grosslat.exact import primes_between
from grosslat.oracle import (
    SupersingularSet,
    _smallest_nonresidue,
    supersingular_j_set,
)
from hasse_reference import deuring_polynomial, hasse_j_set, j_invariant
from ss_p_reference import ss_p_route

np = pytest.importorskip("numpy")


def reference_sweep(p: int) -> SupersingularSet:
    """The oracle by exhaustive evaluation of H_p over F_{p^2} minus {0, 1}."""
    coeffs = deuring_polynomial(p)
    sigma = _smallest_nonresidue(p)
    assert (2 + sigma) * p * p < 2 ** 63, "outside the int64-safe sweep range"
    roots = []

    # lambda in F_p (excluding 0, 1): vectorized Horner
    u = np.arange(2, p, dtype=np.int64)
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = (acc * u + c) % p
    for lam in u[acc == 0]:
        roots.append((int(lam), 0))

    # lambda = u + v s with 1 <= v <= (p-1)/2; conjugates added afterwards
    uu, vv = np.meshgrid(
        np.arange(p, dtype=np.int64),
        np.arange(1, (p - 1) // 2 + 1, dtype=np.int64),
        indexing="ij",
    )
    re = np.zeros_like(uu)
    im = np.zeros_like(vv)
    for c in reversed(coeffs):
        re, im = (re * uu + sigma * im * vv + c) % p, (re * vv + im * uu) % p
    hit = (re == 0) & (im == 0)
    for a, v in zip(uu[hit].tolist(), vv[hit].tolist()):
        roots.append((a, v))
        roots.append((a, p - v))

    js = {j_invariant(lre, lim, p, sigma) for lre, lim in roots}
    spine = sum(1 for _, im in js if im == 0)
    orbit = spine + (len(js) - spine) // 2
    return SupersingularSet(p, sigma, tuple(sorted(js)), spine, orbit)


@pytest.mark.parametrize("p", primes_between(3, 200) + [499, 1009])
def test_root_finding_matches_sweep(p):
    assert supersingular_j_set(p) == reference_sweep(p)


@pytest.mark.oracle_reference
def test_root_finding_matches_sweep_up_to_500():
    mismatched = [
        p for p in primes_between(3, 500) if supersingular_j_set(p) != reference_sweep(p)
    ]
    assert mismatched == []


@pytest.mark.oracle_reference
def test_root_finding_matches_the_hasse_route_up_to_2000():
    mismatched = [
        p for p in primes_between(3, 2000) if supersingular_j_set(p) != hasse_j_set(p)
    ]
    assert mismatched == []


@pytest.mark.oracle_reference
def test_walk_matches_the_ss_p_route_up_to_2000():
    mismatched = [
        p for p in primes_between(3, 2000) if supersingular_j_set(p).js != ss_p_route(p)
    ]
    assert mismatched == []
