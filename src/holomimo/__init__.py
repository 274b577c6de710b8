"""Holographic MIMO channel synthesis and capacity evaluation toolkit.

Importing holomimo makes numpy's OpenBLAS single-threaded before any
submodule imports numpy, leaving ``os.environ`` as found (``_blas``): the
workers OpenBLAS starts as numpy loads spin ~0.1 s past their last job even
once the count is lowered, and cost half of numpy's import; the plan QRs'
last bits depend on the thread count.
"""

from . import _blas

_blas.one_blas_thread()

from .capacity import (
    CapacityReport,
    PowerAllocation,
    UserDrop,
    drop_users,
    mu_sum_capacity,
    su_capacity,
    uma_pathloss_delta_db,
    waterfill,
)
from .config import ScenarioConfig, config_from_dict, load_config, preset
from .coupling import (
    CouplingProfile,
    ElementPattern,
    build_coupling_profile,
    efficiency_from_sparams,
    hannan_limit,
    load_pattern_file,
    load_sparams_file,
)
from .geometry import ArrayGeometry, build_planar_array
from .lattice import (
    HarmonicIndex,
    SpectralLattice,
    build_lattice,
    build_lattices,
    build_variance_table,
    enumerate_lattice,
    harmonic_angles,
    harmonic_vector,
)
from .spectrum import (
    AngularPowerSpectrum,
    CdlClusterRow,
    VmfComponent,
    concentration_from_spread,
    load_cdl_rows,
    rotate_spectrum,
    spectra_from_cdl,
)
from .sweep import SweepResult, SweepRow, render, run_sweep
from .synthesis import SynthesisPlan, build_plan, sample_channel

__version__ = "0.1.0"
