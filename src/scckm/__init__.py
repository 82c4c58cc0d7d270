"""Link-level Monte Carlo BER simulator for spatial CCK modulation in MIMO-OFDM."""

from .cck import (Codebook, cck2_codebook, cck4_enumerate,
                  cck4_reference_codebook, cck8_codebook, cck8_codeword,
                  dmin_closed_form, golay_pair, min_distance,
                  select_cck4_subset)
from .channel import apply_channel, freq_response, generate_channel
from .modem import (Detection, ml_detect_scck_grid, ml_detect_sm_equalized_grid,
                    scck_map, sm_map, zf_equalize, zf_equalize_grid)
from .ofdm import OfdmParams, ofdm_demodulate, ofdm_modulate
from .sim import (BerCurve, BerPoint, SimConfig, emit_csv, run_point,
                  run_sweep)

__version__ = "0.1.0"

__all__ = [
    "BerCurve", "BerPoint", "Codebook", "Detection", "OfdmParams",
    "SimConfig", "apply_channel", "cck2_codebook", "cck4_enumerate",
    "cck4_reference_codebook", "cck8_codebook", "cck8_codeword",
    "dmin_closed_form", "emit_csv", "freq_response", "generate_channel",
    "golay_pair", "min_distance", "ml_detect_scck_grid",
    "ml_detect_sm_equalized_grid", "ofdm_demodulate", "ofdm_modulate",
    "run_point", "run_sweep", "scck_map", "select_cck4_subset", "sm_map",
    "zf_equalize", "zf_equalize_grid",
]
