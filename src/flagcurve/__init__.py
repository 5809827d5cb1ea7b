"""Flag representations of surface groups in SL(3,R): projective points,
lines and flags, Fuchsian seeds and word balls, representation families
(group elements are plain (3,3) arrays), limit-curve sampling, spectral
certificates, and invariant-domain experiments."""

__version__ = "0.1.0"

from .projective import Flag, ProjLine, ProjPoint, canonicalize, pairing
from .surface import (
    CohomologyClass,
    FuchsianSeed,
    Word,
    ball_count,
    eval_u,
    standard_fuchsian,
    translation_length,
)
from .ball import enumerate_ball
from .reps import (
    RepSpec,
    coboundary_radial,
    evaluate,
    phi,
    rho0,
    spec_from_json_dict,
)
from .spectral import (
    EigenTriple,
    attractive_flag,
    eigen3,
    is_loxodromic,
    repulsive_flag,
    saddle_at_e2,
)
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
    stable_norm,
)
from .delta import DeltaFit, DeltaModel, fit_delta, pushforward_deviation
from .domain import (
    FiberProfile,
    OmegaQuery,
    RecurrenceReport,
    fiber_profile,
    in_omega,
    recurrence_experiment,
)
