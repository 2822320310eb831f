"""From a one-variable superpotential to a matrix diagram.

Critical values of W become the points. Newton continuation along straight
legs from one basepoint finds the vanishing cycle of each value in the
fiber there; reflected in the cycles of the values they pass, they pair
into the integer transport along each segment, with t(w2,w1) = -t(w1,w2).
The total monodromy must be a single cycle of length deg W, matching the
monodromy of W at infinity.
"""

from air import (
    Superpotential,
    critical_data,
    matrix_diagram_from_W,
    total_monodromy_check,
    track_fiber,
)

W = Superpotential.of(["0", "-1", "0", "1/3"])   # x^3/3 - x
print("W =", W)

data = critical_data(W)
print("critical points:", [f"{x:.6f}" for x in data.points])
print("critical values:", [f"{v:.6f}" for v in data.values])

md = matrix_diagram_from_W(W)
print("\nmatrix diagram:")
print("  points:", {l: (str(md.config.point(l).x), str(md.config.point(l).y))
                    for l in md.config.labels})
print("  snap error:", md.snap_error, "(A2 values are exactly -2/3, 2/3)")
print("  t(w1,w2) =", md.t("w1", "w2"), " t(w2,w1) =", md.t("w2", "w1"))
print("  local monodromies:", {l: md.monodromies[l] for l in md.config.labels})

# Tracking the fiber around one critical value transposes the two roots
# that collide there; around nothing, it does nothing.
basis = data.basis
w0 = data.values[0]
print("\nfiber over the basepoint:", [f"{r:.4f}" for r in basis.roots])
square = [basis.basepoint, basis.basepoint + 0.01, basis.basepoint]
print("trivial loop permutation:",
      track_fiber(W, square, basis).perm)

rep = total_monodromy_check(W)
print("\ntotal monodromy around everything:")
print("  permutation:", rep.big_perm)
print("  single cycle of length deg W =", W.degree, ":", rep.is_full_cycle)
print("  equals the composite of the local loops:", rep.composition_matches)

# A degree-5 example: four critical values, still one big cycle.
W5 = Superpotential.of(["0", "-1", "0", "0", "0", "1/5"])   # x^5/5 - x
rep5 = total_monodromy_check(W5)
print(f"\nx^5/5 - x: {len(critical_data(W5).values)} critical values,"
      f" full cycle: {rep5.is_full_cycle}")
