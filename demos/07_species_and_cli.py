#!/usr/bin/env python3
"""Valued quivers counted through field extensions, the skew construction,
and the command line round trip."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import quiverfold as qf

# A valued quiver carries symmetriser weights d and edge labels b; here the
# weighted (2, 1) edge whose Cartan matrix is the rank-two B2.
vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
print("edge pairs:", vq.normalized_pairs())

# Species counts over GF(q) go through the unfolded quiver over GF(q^t).
print("species counts over GF(3):")
for alpha in [(1, 0), (1, 1), (1, 2), (2, 2)]:
    print(" ", alpha, "->", qf.species_count(vq, alpha, 3))

rep = qf.verify_species_theorem(vq, 2, height=3)
print("species check over GF(2) passed:", rep.passed)
print()

# unfold() reverses folding: it builds a plain quiver with an admissible
# automorphism whose fold returns the valued data.
a = qf.unfold(vq)
print("unfolded vertices:", a.quiver.vertices, "order", a.order)
back = qf.fold(a)
print("round trip d:", back.d, " B:", back.b_matrix)

# The skew construction glues the orbit of each arrow into a quiver on the
# vertex orbits, with residue classes recorded per arrow.
line, flip = qf.build_a3_flip()
skq = qf.skew(flip)
print("skew vertices:", skq.quiver.vertices)
print("skew arrows:", [(r.id, r.source, r.target) for r in skq.quiver.arrows])

# h_map compresses skew dimension vectors to the folded lattice, matching
# the bilinear forms on both sides.
beta = (1, 1, 1)
print("h_map", beta, "->", qf.h_map(skq, beta))

ds = qf.double_skew_check(flip)
print("skew of the skew recovers the quiver:", ds.found)
print()

# Everything above is scriptable through JSON documents and the CLI.
doc = qf.quiver_to_dict(line, flip)
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "line.json"
    path.write_text(qf.json_dumps(doc))
    for args in [
        ["fold", str(path)],
        ["roots", str(path), "--max-height", "3"],
        ["verify", "kac", str(path), "--field", "2", "--max-height", "3"],
    ]:
        out = subprocess.run(
            [sys.executable, "-m", "quiverfold", *args],
            capture_output=True, text=True, check=True,
        )
        print("$ quiverfold", " ".join(args))
        for ln in out.stdout.strip().splitlines():
            print("   ", ln)

    # --json output feeds back into the loaders.
    out = subprocess.run(
        [sys.executable, "-m", "quiverfold", "fold", str(path), "--json"],
        capture_output=True, text=True, check=True,
    )
    fold_doc = json.loads(out.stdout)
    print("fold --json keys:", sorted(fold_doc))
