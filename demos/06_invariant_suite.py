"""Run the structural invariant suite and print the timing table.

Same checks as `fermient validate`: kernel Hermiticity and Fourier
consistency, entropy monotonicity, the lattice, prolate, tensor_box and
radial routes against their dense oracles, lattice particle-hole
symmetry, the role swap on the Nystrom route, boundary-coefficient
cross-checks, the closed-form functional values, dilatation
equivalence, and the Nystrom trace rule.
"""

import sys

from fermient.cli import main

sys.exit(main(["validate"]))
