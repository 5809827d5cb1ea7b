"""Flag representations of surface groups in SL(3,R): projective flags,
Fuchsian seeds, representation specs (group elements are plain (3,3)
arrays), limit-curve sampling, spectral certificates, and
invariant-domain experiments.  Every stage reads the shortlex word ball
of ``ball.BallTable`` through one batched kernel per task."""

__version__ = "0.1.0"

from .projective import Flag, canonicalize
from .surface import FuchsianSeed, standard_fuchsian
from .reps import RepSpec, coboundary_radial, generator_values, phi, rho0, spec_from_json_dict
from .curve import (
    CurveModel,
    check_incidence,
    injectivity_report,
    regularity_diagnostics,
    sample_limit_curve,
)
from .certify import (
    CertifyResult,
    StableNormEstimate,
    anosov_rates,
    certify_anosov,
    probe_explicit,
)
from .delta import DeltaFit, DeltaModel, fit_delta, pushforward_deviation
from .domain import OmegaQuery, RecurrenceReport, in_omega, recurrence_experiment
