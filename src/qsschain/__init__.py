"""Seedable simulator of a chained Bell-pair secret-sharing distribution
protocol: the honest flow, a two-participant collusion attack, an
intercept-resend eavesdropper, decoy checks and a pair-sampling parity
check, with Monte Carlo and exact-enumeration statistics."""

__version__ = "0.1.0"
