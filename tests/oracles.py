"""Reference helpers shared by the test modules: LSE fits and forwards through the row kernels."""

from dataclasses import replace

from xanfis.inference import Rows, forward, membership_tensor, refit
from xanfis.membership import product_firing


def lse_fit(rb, X, y, lam):
    """rb with its LSE consequents on X, the Rows of X holding its forward, and its predictions there."""
    rows = Rows.of(X, rb)
    w, yhat = refit(rows, y, lam, rb.centers, rb.scales)
    return replace(rb, consequents=w), rows, yhat


def firing(X, rb, buf=None):
    """Rows of X holding rb's forward: normalized firing, live mask and u."""
    rows = Rows.of(X, rb, buf=buf)
    forward(rows, rb.centers, rb.scales)
    return rows


def raw_firing(X, rb):
    """Unnormalized product firing strengths, (R, N), derived apart from the forward's normalization."""
    return product_firing(rb.mf_kind, membership_tensor(Rows.of(X, rb), rb.centers, rb.scales))
