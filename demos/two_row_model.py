"""A tour of the two-row lattice model.

Configurations pair two rows over {-1, 0, 1, *}; reading the columns as
lattice-path steps, the wall maps shuffle a conserved particle pair along
the paths.  Extended with an output wall they are a bijection, which is
what makes the stationary law a product of boundary-rate factors.
"""
from operator import itemgetter

from weyltasep import (DStarParams, R, build_dstar, exact_stationary, fmt_ratio,
                       project_distribution)
import weyltasep.tworow as tr


def show(config):
    top, bottom = config
    fmt = lambda row: " ".join(f"{str(x):>2}" for x in row)
    return fmt(top) + "   /   " + fmt(bottom)


print("All configurations with 4 columns and one zero-column:")
configs = tr.enumerate_configs(4, 1)
for c in configs:
    lab = tr.label_counts(c)
    print(f"  {show(c)}    labels y={lab.n_y} z={lab.n_z} y*={lab.n_ystar} z*={lab.n_zstar}")
print(f"  ({len(configs)} configurations)\n")

print("The extended wall map is a bijection of (configurations x walls):")
images = set()
for c in configs:
    for wall in (1, 2, 3):
        images.add(tr.tstar_bar(c, wall))
print(f"  {len(configs) * 3} inputs -> {len(images)} distinct images\n")

params = DStarParams(R(2, 3), R(3, 7), R(1, 2), R(5, 11))
law, z = tr.stationary(4, 1, params)
print(f"Product-form stationary law at rates (2/3, 3/7, 1/2, 5/11), Z = {fmt_ratio(z)}:")
for c in configs:  # the weight q is one inverse rate per label
    q = tr.q_weight(tr.label_counts(c), params)
    print(f"  {show(c)}    q = {fmt_ratio(q):>7}   q/Z = {fmt_ratio(law[c])}")

solved = exact_stationary(tr.kernel(4, 1, params))
print("\nAgrees with the exact solve of the chain:", law == solved)

top = project_distribution(law, itemgetter(0))
starred = exact_stationary(build_dstar(4, 1, params))
print("Top rows reproduce the starred chain's stationary law:", top == starred)
