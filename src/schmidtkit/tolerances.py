"""Numerical tolerances used across the toolkit.

All comparisons that have a natural scale (singular values, eigenvalues)
are taken relative to the largest one; norm and trace checks are
absolute because states and densities are unit-normalized.  These
constants are the only place a threshold is set: every comparison reads
them at call time, so assigning a new value here changes every later
call.
"""

# unit-norm and unit-trace checks
NORM_TOL = 1e-10

# orthonormality of vector families (max off-diagonal Gram entry)
ORTH_TOL = 1e-8

# squared Schmidt coefficients of a decomposition must sum to 1 within
# COEFF_NORM_TOL, which is looser than NORM_TOL
COEFF_NORM_TOL = 1e-8

# a superposition alpha*phi + beta*gamma with norm below this cannot be
# normalized into a state
COMBINATION_NORM_TOL = 1e-8

# phase fixing: the first component above PHASE_TOL * max|v| counts as
# the vector's first nonzero one
PHASE_TOL = 1e-12

# hermiticity of density matrices
HERMITIAN_TOL = 1e-10

# eigenvalue negativity allowance for positive semidefinite checks
PSD_TOL = 1e-9

# singular values below RANK_TOL * sigma_max count as zero
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
