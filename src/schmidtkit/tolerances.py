"""Numerical tolerances used across the toolkit.

All comparisons that have a natural scale (singular values, eigenvalues)
are taken relative to the largest one; norm and trace checks are
absolute because states and densities are unit-normalized.  Functions
that accept an explicit tolerance argument fall back to these module
constants when given None, so overriding a constant here affects every
default-path call.
"""

# unit-norm and unit-trace checks
NORM_TOL = 1e-10

# orthonormality of vector families (max off-diagonal Gram entry)
ORTH_TOL = 1e-8

# hermiticity of density matrices
HERMITIAN_TOL = 1e-10

# eigenvalue negativity allowance for positive semidefinite checks
PSD_TOL = 1e-9

# singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-9

# equal-spectra check (absolute: reduced spectra sum to 1): eigenvalues
# above SPECTRA_TOL count as nonzero, and two cuts' nonzero spectra agree
# when no entry differs by more
SPECTRA_TOL = 1e-8

# off-diagonal magnitude allowed in "diagonal" rotated slices
DIAG_TOL = 1e-8

# pair search: combined singular values within PAIR_GAP_TOL * sigma_max
# of each other form one block, which a second combination splits
PAIR_GAP_TOL = 1e-6

# common eigenbasis: eigenvalues within EIGEN_GAP_TOL * max(1, max|v|)
# of each other count as degenerate and are refined by the next matrix
EIGEN_GAP_TOL = 1e-10

# links: the polar-factor unitary must map source onto target, and
# local_unitary_link's coefficients must agree, within LINK_TOL
LINK_TOL = 1e-8

# inputs within this distance of unit norm are silently renormalized
REPAIR_WINDOW = 1e-6

# accept gate: candidate decompositions must rebuild the input this well
RECONSTRUCT_TOL = 1e-8
