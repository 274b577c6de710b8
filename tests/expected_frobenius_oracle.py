"""Closed-form second moment of a synthesis plan's channel draws."""

import numpy as np

from holomimo import SynthesisPlan


def expected_frobenius(plan: SynthesisPlan, variances: np.ndarray) -> float:
    """Closed-form expected squared Frobenius norm of a realization drawn on
    ``plan`` with ``variances``.

    E||H||^2 = N_R*N_S * sum over harmonic pairs of sigma^2(l, m) *
    ||Gamma_R psi_R(l)||^2 * ||Gamma_S psi_S(m)||^2; serves as the moment
    oracle for the sampler.
    """
    ue_norms = np.sum(
        np.abs(plan.ue_amplitudes[:, None] * plan.ue_basis) ** 2, axis=0
    )
    bs_norms = np.sum(
        np.abs(plan.bs_amplitudes[:, None] * plan.bs_basis) ** 2, axis=0
    )
    return float(plan.ue_count * plan.bs_count * (ue_norms @ variances @ bs_norms))
