"""Simulate a rank-2 reduced alcove walk and render its trajectory.

The walk reflects through walls of the current alcove, never recrossing a
hyperplane; after finitely many steps it is trapped in one chamber and
drifts along that chamber's copy of the limiting direction.
"""
from weyltasep import WeylKind, fmt_ratio, limdir_closed
from weyltasep.walk import estimate_direction, run_walk, svg_trajectory

kind = WeylKind("B", 2)

summary = run_walk(kind, kind.n, steps=50_000, seed=3)
print(f"one trajectory: {summary.accepted} hyperplanes crossed in {summary.steps} steps")
print(f"  final point   {tuple(str(v) for v in summary.final_point)}")
print(f"  chamber       {summary.chamber}")

est = estimate_direction(kind, kind.n, steps=200_000, trials=20, seed=3)
closed = limdir_closed(kind, kind.n)
print("\nover 20 trials:")
print(f"  mean direction (dominant chamber)  ({est.direction[0]:.4f}, {est.direction[1]:.4f})")
print(f"  closed form                        ({', '.join(fmt_ratio(c) for c in closed.coeffs)})")
print(f"  cosine similarity                  {est.cosine_vs_closed_form:.6f}")
print(f"  acceptance rate                    {est.acceptance_rate:.3f}")
print("  chamber visits:")
for chamber, count in sorted(est.chamber_counts.items()):
    print(f"    {chamber}: {count}")

svg_trajectory(kind, steps=1500, seed=3, path="walk_b2.svg")
print("\ntrajectory written to walk_b2.svg")
