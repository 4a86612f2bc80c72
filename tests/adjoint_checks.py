"""The dot-product test of a linear stage's adjoint, shared by the stage tests.

A map J that is linear over the reals (complex-linear or conjugate-linear
included) and its adjoint J^H satisfy Re <J v, u> = Re <v, J^H u> for every
v and u, with <a, b> = sum conj(a) b. Both sides agree to roundoff when the
adjoint is exact, and a wrong adjoint misses by O(1) for almost every draw
(Claerbout, Earth Soundings Analysis, "dot-product test").
"""

import numpy as np


def dot_product_sides(forward, adjoint, v, u) -> tuple[float, float]:
    """(Re <J v, u>, Re <v, J^H u>) for J = forward and J^H = adjoint, arrays of any
    shape, real or complex; each caller bounds their gap with its own tolerance."""
    return np.vdot(forward(v), u).real, np.vdot(v, adjoint(u)).real
