"""Numerical tolerances used across the toolkit.

Each threshold has one role; README's "Error model" table gives, per
constant, the quantity it bounds, its scale and norm, the checks that
read it, and whether a check it decides is a proof or a tolerance call.
Comparisons with a natural scale (singular values, S S+) are relative to
the largest value; norm, trace, residual and spectrum checks are
absolute because states and densities are unit-normalized.  These
constants are the only place a threshold is set: every comparison reads
them at call time, so assigning a new value here changes every later
call.
"""

# a supplied state or density is exact: unit 2-norm, unit trace, and
# Hermitian to this largest entry of rho - rho+
NORM_TOL = 1e-10

# a decomposition is well formed: squared coefficients sum to 1, and each
# family (or unitary) is orthonormal to this largest Gram entry off I
ORTH_TOL = 1e-8

# a superposition alpha*phi + beta*gamma with 2-norm below this cannot be
# normalized into a state
COMBINATION_NORM_TOL = 1e-8

# phase fixing: the first component above PHASE_TOL * max|v| counts as
# the vector's first nonzero one
PHASE_TOL = 1e-12

# eigenvalue negativity allowance for positive semidefinite checks
PSD_TOL = 1e-9

# singular values below RANK_TOL * sigma_max count as zero; purify cuts
# the eigenvalues of rho (sigma^2) at RANK_TOL * max(lambda_max, 1),
# which for a unit trace is absolute
RANK_TOL = 1e-9

# equal-spectra check (absolute: reduced spectra sum to 1): eigenvalues
# above SPECTRA_TOL count as nonzero, and two cuts' nonzero spectra agree
# when no entry differs by more.  Spectra are Gram eigenvalues, accurate to
# ~1e-16 absolute; the rank functions keep the SVD (RANK_TOL on sigma means
# sigma^2 ~ 1e-18, below what a Gram matrix resolves)
SPECTRA_TOL = 1e-8

# off-diagonal magnitude allowed in "diagonal" rotated slices
DIAG_TOL = 1e-8

# links: the polar-factor unitary must map source onto target, and
# local_unitary_link's coefficients must agree, within LINK_TOL
LINK_TOL = 1e-8

# inputs within this distance of unit norm are silently renormalized
REPAIR_WINDOW = 1e-6

# accept gate: candidate decompositions must rebuild the input this well
RECONSTRUCT_TOL = 1e-8
