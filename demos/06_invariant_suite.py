"""Run the structural invariant suite and print the timing table.

Same checks as `fermient validate`: kernel Hermiticity and Fourier
consistency, entropy monotonicity, the lattice, prolate, tensor_box and
radial routes against their dense oracles, lattice particle-hole
symmetry, the role swap on the Nystrom route, boundary-coefficient
cross-checks, the closed-form functional values, dilatation
equivalence, and the Nystrom trace rule.
"""

from fermient.validate import run_all

results = run_all()
width = max(len(r.name) for r in results)
for r in results:
    status = "PASS" if r.passed else "FAIL"
    print(f"{r.name:<{width}}  {status}  {r.seconds:7.3f}s  {r.detail}")
print(f"\n{sum(r.passed for r in results)}/{len(results)} checks passed")
