"""The sorting trick: canonicalize inputs instead of averaging over permutations."""
from itertools import permutations

import numpy as np

from sortkern import KernelMode, KernelSpec, kernel_value, sort_points

k = KernelSpec(amplitude=1 / (2 * np.pi), bandwidth=1.0)
w = np.array([0.2, 0.7, 0.1])
z = np.array([0.9, 0.3, 0.4])

# sorted-mode evaluation is just the plain kernel on descending rearrangements
v_sorted = kernel_value(k, KernelMode.SORTED, w, z)
v_manual = kernel_value(k, KernelMode.PLAIN,
                        sort_points(w[None])[0], sort_points(z[None])[0])
print("sorted mode          ", v_sorted)
print("plain on sorted args ", v_manual)
print("identical bitwise    ", v_sorted == v_manual)

# permuting either argument changes nothing
g = np.random.default_rng(0)
vals = {kernel_value(k, KernelMode.SORTED, w[g.permutation(3)], z)
        for _ in range(10)}
print("values over permuted inputs:", vals)

# the group average over one argument's permutations equals the explicit
# average over all (d!)^2 permutation pairs, since the Gaussian is isotropic
perms = [list(p) for p in permutations(range(3))]
v_single = kernel_value(k, KernelMode.PERM_SINGLE, w, z)
v_double = sum(kernel_value(k, KernelMode.PLAIN, w[p], z[q])
               for p in perms for q in perms) / len(perms) ** 2
print("single-sum average   ", v_single)
print("double-sum average   ", v_double)
