"""Dimension profiles of compact subsets of the half-line under
Levy-process kernels, with simulation cross-checks.

Core pipeline: describe a process (`process_models`), discretize a set
(`set_models`), minimize the kernel energy over discrete measures
(`energy_min`), read dimension profiles off log-log ladders (`profiles`),
and corroborate the identities by box-counting simulated images
(`simulate`).  `fracdim.cli` wraps everything in a reproducible runner.
"""

from .errors import (CertificateFailed, DegenerateLadder, FracdimError,
                     MeshTooFine, NetTooLarge, NonConvergedQuadrature,
                     TooLarge)
from .ladders import LadderEstimate
from .process_models import (KernelFamily, LaplaceExponent, LevyModel,
                             cauchy_weighted_energy, kappa_monte_carlo,
                             kappa_stable_1d)
from .set_models import (CompactSet, DeltaNet, discretize, kolmogorov_capacity,
                         minkowski_dim_estimate)
from .energy_min import (EnergyResult, KernelMatrix, SimplexWeights,
                         build_kernel, exp_kernel_min_energy, is_psd,
                         kkt_certificate, min_energy, min_energy_bruteforce)
from .profiles import (ProfileReport, box_profile, fh_profile,
                       fh_subordinator_predicted, subordinator_box_dim,
                       theta_index)
from .simulate import (ImageExperiment, PathSample, image_dim_experiment,
                       sample_path)

__version__ = "0.1.0"
