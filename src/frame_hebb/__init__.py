"""Principal-subspace learning rules and the frame machinery linking them.

The package implements the subspace learning rule and the error-gated
Hebbian rule for PCA, in closed form and from samples, together with the
frame-theoretic toolkit (frame elements Xi = x x^T - Sigma, the analytic
and empirical frame operator, frame bounds, the restricted inverse, frame
coefficients and expansions) that reconstructs the second rule from the
first. Every identity ships as a seeded, tolerance-tagged check, runnable
from the ``frame-hebb`` CLI or the ``checks`` module.

The top level re-exports nothing: import the submodules (``config``,
``errors``, ``linalg``, ``gaussian``, ``rules``, ``frames``, ``records``,
``checks``, ``cli``).
"""
