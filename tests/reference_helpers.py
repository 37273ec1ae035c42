"""Reference helpers the tests share; the library itself has no use for them."""

from symcub import Feasibility, SymmetricMomentSpec
from symcub.errors import DegreeOutOfRangeError
from symcub.moment1d import _classify
from symcub.moments import _PATTERN_TO_FIELD, _as_exponents


def moment_of_monomial(spec: SymmetricMomentSpec, exponents) -> float:
    """L(x^alpha) for |alpha| <= 3 by symmetry-class lookup.

    The result is invariant under any permutation of `exponents`.
    """
    exps = _as_exponents(exponents, spec.n)
    if sum(exps) > 3:
        raise DegreeOutOfRangeError(
            f"total degree {sum(exps)} exceeds 3; only degree <= 3 moments are stored"
        )
    pattern = tuple(sorted((a for a in exps if a > 0), reverse=True))
    return getattr(spec, _PATTERN_TO_FIELD[pattern])


def hankel_feasibility(m0: float, m1: float, m2: float, m3: float) -> Feasibility:
    """The Hankel class of a chain's four moments, as `solve_two_point` reads it.

    The class depends on m0, m1 and m2 only; m3 is taken so that a chain's
    four moments can be passed as they come.
    """
    return _classify(m0, m1, m2)[0]
