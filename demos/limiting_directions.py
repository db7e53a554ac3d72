"""Limiting directions of the reduced alcove walks, three ways.

For each family the walk drifts along a fixed direction once it is
confined to a chamber.  We print the exact coefficients from the closed
forms, re-derive them from the exact stationary laws of the family's n
one-cut chains (the highest-root sum, read as tails), and finish with a
Monte Carlo estimate from the walk itself.
"""
from weyltasep import WeylKind, fmt_ratio, limdir_closed, limdir_exact_lam
from weyltasep.walk import estimate_direction

print("Closed-form direction coefficients c_1..c_n")
print("-" * 55)
for family, ranks in [
    ("Ccheck", (2, 3, 4)),
    ("B", (2, 3, 4)),
    ("D", (2, 3, 4, 5, 6)),
    ("C", (1, 2, 3, 4)),
    ("Bcheck", (2, 3, 4)),
]:
    for n in ranks:
        kind = WeylKind(family, n)
        vec = limdir_closed(kind, kind.n)
        print(f"{family:>7} n={n}:  " + ", ".join(fmt_ratio(c) for c in vec.coeffs))
    print()

print("Exact-chain route (stationary-weighted highest-root sum)")
print("-" * 55)
for family in ("Ccheck", "B", "D", "C", "Bcheck"):
    for n in (2, 3, 4):
        kind = WeylKind(family, n)
        lam = limdir_exact_lam(kind)
        closed = limdir_closed(kind, kind.n)
        tag = "equal" if lam.coeffs == closed.coeffs else "proportional"
        assert lam.proportional_to(closed)
        print(f"{family:>7} n={n}:  {tag} to the closed form")
print()

print("Monte Carlo route (10 x 200k steps each)")
print("-" * 55)
for family, n in [("B", 2), ("Ccheck", 2), ("D", 3)]:
    kind = WeylKind(family, n)
    est = estimate_direction(kind, kind.n, steps=200_000, trials=10, seed=42)
    direction = ", ".join(f"{v:.4f}" for v in est.direction)
    print(
        f"{family:>7} n={n}:  ({direction})  "
        f"cosine vs closed form = {est.cosine_vs_closed_form:.6f}"
    )
