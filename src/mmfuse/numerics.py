"""Matrix-level motifs: PCA, regularized CCA, and residual extraction.

The CCA solver whitens both covariance matrices (with additive ridge
loading on the diagonal) and takes the SVD of the whitened cross
covariance; its canonical correlations follow from that SVD in closed
form, so a fit projects none of its data. This stays stable when one
modality has far more dimensions than samples, where plain covariance
inversion is ill-posed; the ridge default below exists for exactly that
case and can be set to 0 on full-rank inputs. R-CCA (``rcca_residual``)
subtracts a projection from a signal of the same width. Inputs whose
columns are uncorrelated with known variances, as a PCA's principal
scores are with its ``explained_variance``, are whitened elementwise by
``1 / sqrt(var + ridge)`` (``cca_fit(..., variances=...)``): no
covariance of a side with itself is formed and no ``eigh`` runs. That is
the same whitening in exact arithmetic and differs from the ``eigh`` one
by rounding. Either way a side whose ridged eigenvalues, or ``var +
ridge``, have ``min <= d · eps · max`` is singular.

All fits are deterministic: no randomized initialization, and component
signs are pinned (largest-magnitude entry positive; the CCA pair is
flipped jointly so the pinned sign never negates a correlation).

``pca_fit`` and ``cca_fit`` each return one model or raise. The leading
k principal axes and the leading k canonical pairs do not depend on k
(Hardoon, Szedmak & Shawe-Taylor 2004), so a caller that needs several
dimensions fits once, at the largest it needs, and reads column prefixes;
``check_pca_dimension`` and ``check_cca_dimension`` say which k a fit of
a given input shape can have.
A PCA input takes one of two routes, judged at the k returned: the
``eigh`` of its smaller Gram matrix, unless the input is small
(``GRAM_MIN_SIDE``), its Gram too ill-conditioned at k (``GRAM_BOUND``)
or its ``eigh`` fails; else the direct SVD, through the R factor of its
QR factorization for a tall input (see ``pca_fit``).

Numerical failures raise ``NumericalError``, which a sweep records as a
failed configuration instead of stopping: a LAPACK routine that does not
converge, a non-finite input, and a fit intermediate that overflows (a
covariance or a PCA variance). numpy's overflow warnings are silenced at
those checked intermediates, since the failure is reported instead.
Projecting the data a model was fitted on needs no such check, because
the checked fit bounds its scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DimensionError, NumericalError

DEFAULT_RIDGE = 1e-3

# Smallest ratio λ_k / λ₁ of Gram eigenvalues at which ``pca_fit`` decomposes
# through the Gram at k (see there). On geometric spectra of rank k (an
# exactly zero tail; 5 seeds of 4 shapes per route, ratios 1.1e-8 to 1e-2),
# the worst component differs from the direct SVD's by at most 0.9 · eps /
# ratio through ``Cᵀ C`` (1.3e-8 at 1.1e-8) and 0.25 · eps / ratio through
# ``C Cᵀ``, which divides by s (2.2e-9 at 1.1e-8), and by under 4e-14 from
# 1e-3 up; spectra with a geometric tail read 0.05-0.3 · eps / ratio. Every
# committed benchmark input takes the Gram at the k it is fit at (4e-4 to 5e-2).
GRAM_BOUND = 1e-8

# Smallest side, min(n, d), of an input that ``pca_fit`` decomposes
# through its Gram. Below it the Gram route saves nothing: one
# fit of a 4 x 3 input took 72-87 us by the direct SVD and 96-100 us by the
# Gram, of 12 x 20 111-138 us and 127 us, of 20 x 30 184-240 us and
# 175-183 us. So a small input keeps the bitwise model of the direct SVD.
GRAM_MIN_SIDE = 16

SIDE_TEXTUAL = "textual"
SIDE_VISUAL = "visual"


@dataclass(frozen=True)
class PcaModel:
    """Column mean, orthonormal components (dim_in x k), variances."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        for name in ("mean", "components", "explained_variance"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim_in(self):
        return self.components.shape[0]

    @property
    def k(self):
        return self.components.shape[1]


@dataclass(frozen=True)
class CcaModel:
    """Paired projections maximizing per-component correlation.

    ``proj_x`` maps the first (textual) input, ``proj_y`` the second
    (visual). ``correlations`` holds the per-component sample correlation
    of the projected fit data, clamped to [0, 1]: equal to it in exact
    arithmetic, and computed in closed form by ``cca_fit``.
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    proj_x: np.ndarray
    proj_y: np.ndarray
    correlations: np.ndarray
    ridge: float

    def __post_init__(self):
        for name in ("mean_x", "mean_y", "proj_x", "proj_y", "correlations"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def k(self):
        return self.proj_x.shape[1]

    @property
    def dim_x(self):
        return self.proj_x.shape[0]

    @property
    def dim_y(self):
        return self.proj_y.shape[0]


def _check_matrix(X, what):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"{what} must be a 2-d matrix")
    return _check_finite(X, what)


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{what} contains non-finite values")
    return arr


def _decompose(routine, matrix, what, **kwargs):
    """Run a LAPACK decomposition of a finite matrix; failure is numerical."""
    _check_finite(matrix, what)
    try:
        return routine(matrix, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: {exc}") from None


def _fix_signs(components):
    """Flip columns so each component's largest-magnitude entry is positive.

    Of tied largest magnitudes the first counts, as ``argmax`` takes it.
    """
    lead = components[np.argmax(np.abs(components), axis=0), np.arange(components.shape[1])]
    flips = np.where(lead < 0, -1.0, 1.0)
    return components * flips, flips


def fitted(fit):
    """A model or other result ``caught`` stored, or raise the error stored in its place."""
    if isinstance(fit, Exception):
        raise fit.with_traceback(None)
    return fit


# the failures a sweep records against what is built on them, instead of stopping
FAILURES = (NumericalError, DimensionError)


def caught(compute, *args):
    """``compute(*args)``, or the failure it raised, kept for whatever is built on it."""
    try:
        return compute(*args)
    except FAILURES as exc:
        return exc


def _gram_svd(X, mean, k):
    """Singular values and right singular vectors of ``X - mean`` from its smaller Gram matrix.

    Returns the leading k of each, or None where the Gram route does not
    apply at k (see ``pca_fit``). The centred input is scaled
    in place and dropped once no longer read: after the Gram on the
    ``Cᵀ C`` route, so no n x d copy is held during the ``eigh``. The Gram
    is dropped after its ``eigh``.
    """
    n, d = X.shape
    centred = _check_finite(X - mean, "centered PCA input")
    # a power of two scales exactly (bar values that fall to subnormals):
    # max |scaled| lies in [0.5, 1), so the Gram can neither overflow nor
    # flush to zero
    _, e = math.frexp(float(max(centred.max(), -centred.min())))
    scaled = np.ldexp(centred, -e, out=centred)
    del centred
    wide = n < d
    if wide:
        gram = scaled @ scaled.T
    else:
        gram = scaled.T @ scaled
        del scaled
    try:
        lam, vecs = _decompose(np.linalg.eigh, gram, "PCA Gram matrix")
    except NumericalError:
        return None
    del gram
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(vecs))):
        return None
    lam, vecs = lam[::-1][:k], vecs[:, ::-1][:, :k]
    # in descending order this also rules out λ₁ <= 0
    if not lam[-1] > GRAM_BOUND * lam[0]:
        return None
    s = np.sqrt(lam)
    if wide:
        vt = vecs.T @ scaled
        vt /= s[:, None]
    else:
        vt = np.ascontiguousarray(vecs.T)
    with np.errstate(over="ignore"):  # an overflowing variance is rejected by the caller
        return np.ldexp(s, e), vt


def pca_fit(X, k):
    """Top-k principal directions of column-centered ``X``.

    Which of two routes decomposes the centred n x d input is judged at
    the k returned:

    - Where ``min(n, d) >= GRAM_MIN_SIDE``, tall or wide, the Gram route:
      ``eigh`` of the smaller Gram matrix, ``C Cᵀ`` (n x n) when ``n < d``
      and ``Cᵀ C`` (d x d) otherwise, of the centred input C scaled by the
      exact power of two ``2^-e`` that puts its largest magnitude in
      [0.5, 1). Its eigenvalues λ, in descending order, give ``s = sqrt(λ)
      · 2^e``. For ``Cᵀ C`` the rows of Vᵀ are its eigenvectors; for ``C
      Cᵀ`` they are ``(Uᵀ C) / s``. Only the k rows returned are formed,
      and no n x d U; the Gram is far cheaper to decompose than the input:
      a 400 x 1024 fit took 30-33 ms against 112-114 ms by the direct SVD,
      a 600 x 150 one 2.0 ms against 7.5 ms by QR and the SVD of R. A tall
      input whose centred column norm overflows fails here as an
      overflowing PCA variance, as a wide one does.
    - The SVD of the centred input, where the Gram route does not apply: a
      smaller input, or one whose Gram ``eigh`` fails or returns
      non-finite values, or has ``λ₁ <= 0``, or ``λ_k <= GRAM_BOUND · λ₁``.
      A Gram squares the condition number, and the ``C Cᵀ`` route divides
      by s, so a constant input takes this route, and so does a
      rank-deficient or near-singular one (dead units, duplicate rows) at
      a k past its rank or the bound. A tall input (``n >= 2 * d``) is
      decomposed through the d x d triangular factor R of its QR
      factorization, which has the singular values and right singular
      vectors of the centred input; neither Q nor an n x d U is formed.
      Past its own crossover (``n >= 11 * d / 6``) LAPACK's ``gesdd`` runs
      that same QR and then decomposes R, so the model is bitwise the one
      of a direct SVD, except where ``gesdd`` rescales the centred input
      or R, at a largest magnitude above about 1e137 or below about
      1e-138: there the two differ by rounding, and a centred column whose
      norm overflows fails as a non-finite PCA input rather than as an
      overflowing variance.

    So ``pca_fit(X, k)`` is bitwise the leading k of ``pca_fit(X, m)`` only
    where both take the SVD or the ``Cᵀ C`` route. Above the bound, on
    spectra whose eigenvalues are apart, components of the Gram route
    differ from the direct SVD's by at most about eps / (λ_k / λ₁) (see
    ``GRAM_BOUND``): at most about 1.3e-8, and below 1e-12 on
    well-conditioned inputs; variances by about 5e-15 of the largest.

    Returns the ``PcaModel`` at k. Failures come in this order: a
    non-finite input (``NumericalError``), ``check_pca_dimension``'s
    ``DimensionError``, then the ``NumericalError`` of the decomposition
    or of an overflowing variance. Rank-deficient input is not an error: trailing components span the
    null space and carry zero explained variance.
    """
    X = _check_matrix(X, "X")
    n, d = X.shape
    check_pca_dimension(k, n, d)
    mean = X.mean(axis=0)
    gram = _gram_svd(X, mean, k) if min(n, d) >= GRAM_MIN_SIDE else None
    if gram is not None:
        s, vt = gram
    else:
        centred = X - mean
        if n >= 2 * d:
            # the SVD of R gives what the SVD of QR = centred gives, without Q or an n x d U
            centred = np.linalg.qr(centred, mode="r")
        _, s, vt = _decompose(np.linalg.svd, centred, "centered PCA input",
                              full_matrices=False)
        s, vt = s[:k], vt[:k]
    with np.errstate(over="ignore"):  # an overflowing variance is rejected below
        variance = np.maximum(s ** 2 / (n - 1), 0.0)
    variance = _check_finite(variance, "PCA variance")
    components, _ = _fix_signs(vt.T)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def check_pca_dimension(k, n, d):
    """Raise ``DimensionError`` unless a PCA of an n x d input can have ``k`` components.

    Fewer than 2 rows fail as such, before any k is checked.
    """
    if n < 2:
        raise DimensionError("PCA needs at least 2 rows")
    if not 1 <= k <= min(n - 1, d):
        raise DimensionError(f"PCA dimension k={k} outside [1, min(n-1={n - 1}, d={d})]")


def pca_transform(model, X):
    """Project rows of ``X``: ``(X - mean) @ components``."""
    X = _check_matrix(X, "X")
    if X.shape[1] != model.dim_in:
        raise DimensionError(
            f"input dim {X.shape[1]} != model dim_in {model.dim_in}"
        )
    return (X - model.mean) @ model.components


def _whitening(centred, variances, ridge, what):
    """The inverse square root of a side's ridged covariance, and its eigenvalues' rounding level.

    ``(C + ridge I)^(-1/2)`` from the ``eigh`` of the side's covariance C,
    or, where its column ``variances`` are given (uncorrelated columns),
    the vector ``1 / sqrt(variances + ridge)``; the rounding level is
    ``tol = d · eps · max`` of the ridged eigenvalues (or ``variances +
    ridge``). Singular, a ``NumericalError``, where their ``min <= tol``.
    """
    n, d = centred.shape
    if variances is None:
        # an overflowing covariance is rejected by the finite check of _decompose
        with np.errstate(over="ignore", invalid="ignore"):
            cov = centred.T @ centred / (n - 1)
        evals, evecs = _decompose(np.linalg.eigh, cov + ridge * np.eye(d), f"{what} covariance")
    else:
        evals = _check_finite(np.asarray(variances, dtype=np.float64) + ridge,
                              f"{what} covariance")
    tol = d * np.finfo(np.float64).eps * max(float(evals.max()), 0.0)
    if evals.min() <= tol:
        raise NumericalError(
            f"{what} covariance is singular; refit with a positive ridge"
        )
    if variances is None:
        return (evecs / np.sqrt(evals)) @ evecs.T, tol
    return 1.0 / np.sqrt(evals), tol


def _whiten(isqrt, m):
    """``isqrt @ m``, for a whitening matrix or the diagonal of one."""
    return isqrt @ m if isqrt.ndim == 2 else isqrt[:, None] * m


def cca_fit(X, Y, k, ridge=DEFAULT_RIDGE, variances=None):
    """Regularized CCA of co-indexed ``X`` (n x d1) and ``Y`` (n x d2) at ``k`` pairs.

    Components are ordered by non-increasing whitened singular value s_j.
    The stored correlations are the sample correlations of the projected
    fit data in exact arithmetic (under ``variances``, of columns with
    exactly those variances), computed in closed form as ``s_j / sqrt((1 -
    ridge ‖a_j‖²)(1 - ridge ‖b_j‖²))`` from the projection columns a_j and
    b_j, so no n x k projection is formed; a side's ``1 - ridge ‖a_j‖²``
    at or below its rounding level (a zero-variance direction: a zero or
    constant column) makes the correlation 0. The
    leading k canonical pairs do not depend on k, so the projections at k
    are the leading k columns of those at any larger k: bitwise under
    ``variances``, otherwise up to the rounding of the whitening's matrix
    product. The correlations agree up to rounding.

    Failures come in this order: a negative or non-finite ridge raises
    ``ValueError``, whatever the inputs are; then a non-finite input
    (``NumericalError``), rows that differ (``AlignmentError``) and
    ``check_cca_dimension``'s ``DimensionError``; then the decomposition's
    ``NumericalError``.

    Each side is whitened by ``(C + ridge I)^(-1/2)``, from the ``eigh`` of
    its covariance C. ``variances=(var_x, var_y)`` declares each side's
    columns uncorrelated with those variances, as a PCA's principal scores
    are with its ``explained_variance``: each side is then whitened
    elementwise by ``1 / sqrt(var + ridge)``, and no C is formed or
    decomposed. Either way a side whose ridged eigenvalues (or ``var +
    ridge``) have ``min <= d · eps · max`` is singular, a
    ``NumericalError``; variances whose lengths are not d1 and d2 raise
    ``ValueError``.
    """
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError("ridge must be finite and >= 0")
    X = _check_matrix(X, "X")
    Y = _check_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise AlignmentError(
            f"row counts differ: X has {X.shape[0]}, Y has {Y.shape[0]}"
        )
    n, d1 = X.shape
    d2 = Y.shape[1]
    check_cca_dimension(k, d1, d2, n)
    if variances is not None and [np.size(v) for v in variances] != [d1, d2]:
        raise ValueError(f"variances must have lengths d1={d1} and d2={d2}")
    mean_x = X.mean(axis=0)
    mean_y = Y.mean(axis=0)
    Xc = X - mean_x
    Yc = Y - mean_y
    var_x, var_y = (None, None) if variances is None else variances
    isqrt_x, tol_x = _whitening(Xc, var_x, ridge, "first-view")
    isqrt_y, tol_y = _whitening(Yc, var_y, ridge, "second-view")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected by the SVD's finite check
        cxy = Xc.T @ Yc / (n - 1)
    whitened = isqrt_x @ cxy @ isqrt_y if variances is None else _whiten(isqrt_x, cxy) * isqrt_y
    u, s, vt = _decompose(np.linalg.svd, whitened, "whitened cross covariance",
                          full_matrices=False)
    proj_x = _whiten(isqrt_x, u[:, :k])
    proj_y = _whiten(isqrt_y, vt[:k].T)
    # joint sign fix: the flip is decided on the stacked component so that
    # swapping (X, Y) yields exactly swapped projections
    _, flips = _fix_signs(np.vstack([proj_x, proj_y]))
    proj_x = proj_x * flips
    proj_y = proj_y * flips
    # a = W u, with W = (C + ridge I)^(-1/2), has variance aᵀ C a = 1 - ridge ‖a‖²
    # and covariance aᵀ Cxy b = s with its pair b: so the projected fit
    # data's sample correlations need no projection, and the flips cancel.
    # A variance per unit ‖a‖² at or below 8 tol is rounding: on zero and
    # constant columns it read up to 2.2 tol, on live components above 5e12 tol
    den = np.ones(k)
    for proj, tol in ((proj_x, tol_x), (proj_y, tol_y)):
        sq = np.einsum("ij,ij->j", proj, proj)
        spread = 1.0 - ridge * sq
        den *= np.where(spread > 8 * tol * sq, spread, 0.0)
    correlations = np.divide(s[:k], np.sqrt(den), out=np.zeros(k), where=den > 0)
    return CcaModel(
        mean_x=mean_x,
        mean_y=mean_y,
        proj_x=proj_x,
        proj_y=proj_y,
        correlations=np.clip(correlations, 0.0, 1.0),
        ridge=float(ridge),
    )


def check_cca_dimension(k, d1, d2, n):
    """Raise ``DimensionError`` unless a CCA of n rows of d1 and d2 columns can have ``k`` pairs.

    Fewer than 3 rows fail as such, before any k is checked.
    """
    if n < 3:
        raise DimensionError("CCA needs at least 3 rows")
    if not 1 <= k <= min(d1, d2, n - 1):
        raise DimensionError(
            f"CCA dimension k={k} outside [1, min(d1={d1}, d2={d2}, n-1={n - 1})]")


def cca_transform(model, X, side):
    """Project ``X`` with the chosen side's mean and projection matrix."""
    X = _check_matrix(X, "X")
    if side == SIDE_TEXTUAL:
        mean, proj, dim = model.mean_x, model.proj_x, model.dim_x
    elif side == SIDE_VISUAL:
        mean, proj, dim = model.mean_y, model.proj_y, model.dim_y
    else:
        raise ValueError(f"side must be {SIDE_TEXTUAL!r} or {SIDE_VISUAL!r}, got {side!r}")
    if X.shape[1] != dim:
        raise DimensionError(f"input dim {X.shape[1]} != model {side} dim {dim}")
    return (X - mean) @ proj


def rcca_residual(original, projected):
    """R-CCA: a signal minus its shared-space projection, of the same width.

    A wider signal is first cut to the projection's width by the caller,
    as ``composition.residual`` does with the leading principal scores.
    Shapes that differ raise ``DimensionError``.
    """
    original = _check_matrix(original, "original")
    projected = _check_matrix(projected, "projected")
    if original.shape[0] != projected.shape[0]:
        raise DimensionError(
            f"row counts differ: original {original.shape[0]}, "
            f"projected {projected.shape[0]}"
        )
    if original.shape[1] != projected.shape[1]:
        raise DimensionError(
            f"widths differ: original {original.shape[1]}, projected {projected.shape[1]}"
        )
    return original - projected
