"""Demo 6: formal orbits of general vector-field systems.

The orbit engine works for any finite system of commuting m-vector fields
with polynomial coefficients, each m-vector field an m-tuple of
TangentVectorField (the type of the bracket ladder too): flows are truncated
Lie series (exact whenever the series terminates), and the greedy
rank-increment construction finds the orbit dimension, cross-checked against
an independent bracket-span oracle.
"""

from segrechains import (
    TangentVectorField,
    VFSystem,
    coordinate_space,
    cr_pair_system,
    formal_flow,
    format_series,
    greedy_multitype,
    lie_span_dimension,
    new_manifold,
    segre_invariants,
)
from segrechains.series import Series

space = coordinate_space(3)
one = Series.constant(space, 1)
zero = Series.zero(space)
x1 = Series.variable(space, "x1")

print("== The system {d/dx, d/dy + x d/dz} in C^3 ==")
X = TangentVectorField(space, (one, zero, zero), "d/dx")
Y = TangentVectorField(space, (zero, one, x1), "d/dy + x d/dz")
S = VFSystem([[X], [Y]])
flow2 = formal_flow(S, 1, order=None)
print("flow of the second field:",
      ", ".join(format_series(c) for c in flow2.map.components))
res = greedy_multitype(S)
print("greedy word      :", [w + 1 for w in res.word])
print("multitype        :", res.multitype)
print("orbit dimension  :", res.orbit_dim)
print("bracket-span oracle:", lie_span_dimension(S))
print("witness returns to 0:", res.witness["returns_to_origin"])

print()
print("== The complexified CR pair as a 2-field system ==")
M = new_manifold(1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"])
cr = cr_pair_system(M)
orb = greedy_multitype(cr, witness=False)
inv = segre_invariants(M)
print("orbit multitype:", orb.multitype)
print("chain multitype:", inv.multitype)
print("dimensions agree with the bracket oracle:",
      orb.orbit_dim == inv.orbit_dim_complexified == lie_span_dimension(cr))
