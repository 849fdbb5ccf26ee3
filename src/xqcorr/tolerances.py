"""Numerical tolerances shared by the whole package.

Every validation threshold lives here as a fixed module constant, so that
all modules agree on what "valid" means.  No function takes a tolerance
argument; code that checks a bound reads the constant directly.
"""

# Hermiticity: max |rho - rho^dagger| entry.
HERMITIAN = 1e-12
# Unit trace: |Tr(rho) - 1|.
TRACE = 1e-12
# Positive semidefiniteness: eigenvalues >= -PSD_FLOOR.
PSD_FLOOR = 1e-10
# Probability floor for X-state diagonals (>= -PROB_FLOOR).
PROB_FLOOR = 1e-12
# 2x2 block positivity: rho14^2 <= rho11*rho44 + BLOCK_POSITIVITY.
BLOCK_POSITIVITY = 1e-12
# Magnitude allowed on non-X entries of a dense matrix.
X_PATTERN = 1e-10
# Bloch vector / correlation tensor bound: <= 1 + BLOCH_BOUND.
BLOCH_BOUND = 1e-10
# Fixed-point residual of the closest-product stationarity system.
STATIONARITY = 1e-10
# Fixed-point residual accepted from the 6-parameter numerical oracle.
ORACLE_RESIDUAL = 1e-8
# |k1 - k3| below which a state is flagged as lying on the case boundary.
CASE_BOUNDARY = 1e-10
# Width of the clamp window for a tiny negative general-state discord.
CLAMP = 1e-12
# States with t_g at or below this are dropped from relative histograms.
TG_FLOOR = 1e-12
# Values this far past a histogram edge are folded into the edge bin.
HISTOGRAM_EDGE = 1e-10
