# One BLAS/OpenMP thread for the suite unless the caller set a count: the
# per-point LAPACK calls on 2x2 matrices wait on thread hand-off otherwise,
# so wall time would follow machine load.  This runs before numpy loads.

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
