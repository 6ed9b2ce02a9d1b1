"""The Legendre-form oracle that `oracle.supersingular_j_set` replaced.

A Legendre curve y^2 = x(x-1)(x-lambda) is supersingular exactly when the
Hasse polynomial H_p(lambda) = sum C(m,i)^2 lambda^i vanishes, m = (p-1)/2.
Its (p-1)/2 roots lie in F_{p^2}, six lambda for each j other than 0 and
1728, and j = 256 (l^2 - l + 1)^3 / (l^2 (l-1)^2).  `hasse_j_set` finds
them with the exact root finder of `ss_p_reference` and maps them to the
j-line, so it is a reference for the root set of ss_p(j) from a polynomial
of about six times the degree and a different construction.
"""

from grosslat.exact import is_prime
from grosslat.oracle import SupersingularSet, _smallest_nonresidue
from ss_p_reference import _roots


def deuring_polynomial(p: int):
    """Coefficients C(m,i)^2 mod p of the Hasse polynomial, m = (p-1)/2."""
    if p < 3 or not is_prime(p):
        raise ValueError("need an odd prime")
    m = (p - 1) // 2
    coeffs = [1]
    c = 1
    for i in range(1, m + 1):
        # C(m,i) = C(m,i-1) * (m-i+1) / i, tracked exactly then reduced
        c = c * (m - i + 1) // i
        coeffs.append((c * c) % p)
    return coeffs


def fp2_mul(a, b, p, sigma):
    """(a0 + a1 s)(b0 + b1 s) in F_p(s), s^2 = sigma."""
    return ((a[0] * b[0] + sigma * a[1] * b[1]) % p,
            (a[0] * b[1] + a[1] * b[0]) % p)


def j_invariant(lam_re: int, lam_im: int, p: int, sigma: int):
    """j = 256 (l^2 - l + 1)^3 / (l^2 (l-1)^2) in F_p(s), s^2 = sigma."""

    def mul(a, b):
        return fp2_mul(a, b, p, sigma)

    def inv(a):
        n = (a[0] * a[0] - sigma * a[1] * a[1]) % p
        ninv = pow(n, p - 2, p)
        return ((a[0] * ninv) % p, (-a[1] * ninv) % p)

    lam = (lam_re % p, lam_im % p)
    lam2 = mul(lam, lam)
    num = ((lam2[0] - lam[0] + 1) % p, (lam2[1] - lam[1]) % p)
    num3 = mul(mul(num, num), num)
    lm1 = ((lam[0] - 1) % p, lam[1])
    den = mul(lam2, mul(lm1, lm1))
    j = mul(num3, inv(den))
    return ((256 * j[0]) % p, (256 * j[1]) % p)


def hasse_lambdas(p: int, sigma: int):
    """All roots (re, im) of H_p in F_p(s), s^2 = sigma."""
    return _roots(deuring_polynomial(p), p, sigma)


def hasse_j_set(p: int) -> SupersingularSet:
    """The supersingular j set of an odd prime p, read off the roots of H_p."""
    sigma = _smallest_nonresidue(p)
    js = {j_invariant(re, im, p, sigma) for re, im in hasse_lambdas(p, sigma)}
    spine = sum(1 for _, im in js if im == 0)
    orbit = spine + (len(js) - spine) // 2
    return SupersingularSet(p, sigma, tuple(sorted(js)), spine, orbit)
