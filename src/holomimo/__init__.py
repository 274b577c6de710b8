"""Holographic MIMO channel synthesis and capacity evaluation toolkit."""

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
    VarianceTable,
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
    load_cdl_table,
    rotate_spectrum,
    spectra_from_cdl,
)
from .sweep import SweepResult, SweepRow, emit, render, run_sweep
from .synthesis import (
    ChannelRealization,
    SynthesisPlan,
    build_plan,
    sample_channel,
)

__version__ = "0.1.0"
