import os

import pytest

# marker -> (environment flag that enables it, reason shown when skipped)
OPT_IN = {
    "oracle_reference": (
        "GROSSLAT_ORACLE_REFERENCE",
        "the 2-isogeny walk oracle against the numpy sweep for every prime "
        "<= 500, and against the test-side ss_p factorisation reference and "
        "the Legendre-form Hasse route for every prime <= 2000; "
        "set GROSSLAT_ORACLE_REFERENCE=1",
    ),
    "walk_reference": (
        "GROSSLAT_WALK_REFERENCE",
        "Gram walk against the order walk, each type record against the "
        "minimal basis of its walk Gram, its greedy dedupe key against "
        "the full-enumeration minima, its closed-form seed against the "
        "standard order's Gross Gram, its Kneser neighbours against the "
        "seven-row HNF reference, the Kneser line memo against a fresh line "
        "search, gross_neighbours against the composed "
        "half_form and kneser_neighbours route, each skipped reverse line's "
        "neighbour against the parent's key and the skipping walk against "
        "the skip-free search, and minimal_basis and "
        "primitive_norms against the vector-list routes, at ell = 2 and 3 for "
        "every prime <= 2000, "
        "and the direct CM route against the walk up to each odd prime "
        "row's default_p_max; set GROSSLAT_WALK_REFERENCE=1",
    ),
}


# marker -> reason shown when skipped; these run only when `-m` names them
SELECTED = {
    "verify_large": (
        "verify_prime with every rule live, the two oracle count rules "
        "included, at the least primes above 10^5, 2 * 10^5, 5 * 10^5 and "
        "10^6, and gram_gross over every D1 against the scanning reference "
        "at 100003, 1000003 and 4000037; run with -m verify_large"
    ),
}


def pytest_collection_modifyitems(config, items):
    gates = [
        (marker, reason)
        for marker, (flag, reason) in OPT_IN.items()
        if os.environ.get(flag) != "1"
    ]
    markexpr = config.getoption("markexpr") or ""
    gates += [
        (marker, reason)
        for marker, reason in SELECTED.items()
        if marker not in markexpr
    ]
    for marker, reason in gates:
        skip = pytest.mark.skip(reason=reason)
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)
