"""Demo 2: CR-generic manifolds in graph form and the reality check.

A manifold is entered through the d series theta_bar(w, zeta, xi) of its
complexified graph equations z = xi + i*theta_bar.  Construction derives the
conjugate data and verifies the reality identity; inputs that do not define
a real manifold are rejected with the first offending monomial.
"""

from segrechains import (
    format_series,
    graph_from_real,
    new_manifold,
    segre_leaf,
    vector_fields,
)
from segrechains.errors import RealityViolation
from segrechains.scalars import GaussianRational as G

print("== The Heisenberg quadric z = conj(z) + i w conj(w) ==")
M = new_manifold(1, 1, ["w1*zeta1"])
print("theta    :", format_series(M.theta[0]))
print("rho      :", format_series(M.rho()[0]))

print()
print("== A non-real input is rejected ==")
try:
    new_manifold(1, 1, ["i*w1*zeta1"])
except RealityViolation as exc:
    print("rejected:", exc)

print()
print("== Converting a real graph 2*Im(z) = h(w, conj(w), Re(z)) ==")
G2 = graph_from_real(2, 2, ["w1*wb1", "x1^2*w2*wb2 + 1/4*w1^2*wb1^2*w2*wb2"])
for j, tb in enumerate(G2.theta_bar, start=1):
    print(f"theta_bar_{j} =", format_series(tb))

print()
print("== Complexified CR vector fields ==")
L, Lbar = vector_fields(M)
space = M.space
print("L    coefficient of d/dz1 :", format_series(L[0].coefficients[space.index_of('z1')]))
print("Lbar coefficient of d/dxi1:", format_series(Lbar[0].coefficients[space.index_of('xi1')]))
print("(tangency and commutation certificates were checked symbolically)")

print()
print("== A complexified Segre variety as a parametrized leaf ==")
leaf = segre_leaf(M, tau_p=([G(2)], [G(0, 1)]))
for name, comp in zip(M.space.names, leaf.components):
    print(f"  {name} = {format_series(comp)}")
