"""Write the two fixed schedules the solve and bgsub workloads load.

Both follow the initial schedule of training: zeta_0 = 0.5 * max|Y| of a
probe input, zeta_k = zeta_0 * 0.65**k and eta_k = 0.65 for k <= K = 10,
then a tail with phi = 0.65 and beta = 1.  Stored as files so that a change
to training cannot move the solve-n2000 or bgsub-qqvga figures.

Run from the repository root:  python3 perfbench/make_schedules.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from lrpca import (ParamSchedule, frames_to_matrix, gen_instance,  # noqa: E402
                   moving_blob_scene, write_schedule)

K, DECAY, ETA, PHI, BETA = 10, 0.65, 0.65, 0.65, 1.0


def recipe(probe_Y):
    z0 = 0.5 * float(np.abs(probe_Y).max())
    return ParamSchedule(zetas=tuple(z0 * DECAY ** k for k in range(K + 1)),
                         etas=(ETA,) * K, beta=BETA, phi=PHI)


def main():
    out = os.path.join(HERE, "schedules")
    os.makedirs(out, exist_ok=True)
    solve_probe = gen_instance(2000, 2000, 5, 0.1, seed=0).Y
    write_schedule(recipe(solve_probe), os.path.join(out, "solve-n2000.csv"))
    clip, _ = moving_blob_scene(120, 160, 60)
    write_schedule(recipe(frames_to_matrix(clip)),
                   os.path.join(out, "bgsub-qqvga.csv"))


if __name__ == "__main__":
    main()
