"""Gaussian-channel model of accelerated cavities and a (2,3)-threshold
continuous-variable secret sharing protocol built on top of it."""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    SymplecticMap,
    UnphysicalStateError,
    apply_symplectic,
    beam_splitter,
    check_symplectic,
    coherent,
    fidelity_pure_mixed,
    phase_rotation,
    squeeze,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    two_mode_squeezed_vacuum,
)
from .modes import (
    BogoliubovSet,
    CorruptCacheError,
    FitValidationError,
    ModeSums,
    TransitionFit,
    fit_transition,
    get_transition,
    grid_segments,
    mode_sums,
    segment_maps,
)
from .channel import (
    ChannelInvariants,
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    compose,
    cp_residual,
    free_channel,
    reduced_channel,
    segment_channel,
    t2_from_sums,
)
from .protocol import (
    DecoderCalibration,
    FidelityReport,
    ProtocolConfig,
    calibrate_decoder,
    collaborate,
    decoder_maps,
    encode,
    fidelity_closed_forms,
    fidelity_grid,
    fidelity_report,
    figure_tables,
    simulate_fidelity,
)
