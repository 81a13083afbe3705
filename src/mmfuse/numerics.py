"""Matrix-level motifs: PCA, regularized CCA, and residual extraction.

The CCA solver whitens both covariance matrices (with additive ridge
loading on the diagonal) and takes the SVD of the whitened cross
covariance. This stays stable when one modality has far more dimensions
than samples, where plain covariance inversion is ill-posed; the ridge
default below exists for exactly that case and can be set to 0 on
full-rank inputs. Inputs whose columns are uncorrelated with known
variances, as a PCA's principal scores are with its
``explained_variance``, are whitened elementwise by
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
dimensions fits once at the widest and reads column prefixes;
``check_pca_dimension`` and ``check_cca_dimension`` say which k a fit of
a given input shape can have.
A PCA input takes one of two routes, chosen from the input alone. Unless
small (``GRAM_MIN_SIDE``), whatever its aspect ratio, it is decomposed
through the ``eigh`` of its smaller Gram matrix, scaled by an exact power
of two, to within about 1e-12 of the direct SVD on well-conditioned
input. A small one, or one whose Gram is too ill-conditioned
(``GRAM_BOUND``) or whose ``eigh`` fails, is decomposed by the direct
SVD. There an input with at least twice as many rows as columns is
decomposed through the R factor of its QR factorization, as LAPACK's own
SVD of a tall matrix does, so no n x d factor is formed; the model is
bitwise that of the direct SVD except where LAPACK rescales an input with
magnitudes above about 1e137 or below about 1e-138 (see ``pca_fit``).

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

from .errors import (
    AlignmentError,
    DimensionError,
    MissingReductionError,
    NumericalError,
)

DEFAULT_RIDGE = 1e-3

# Smallest ratio λ_m / λ₁ of Gram eigenvalues that ``pca_fit`` decomposes
# through the Gram (see there). Measured on inputs of geometric spectra
# (60 x 200 and 150 x 100), the worst component of the Gram route differs
# from the direct SVD's by 2.4e-9 at a ratio of 1e-8, 3.4e-8 at 1e-9 and
# 1.2e-7 at 1e-10: about 0.1-0.3 · eps / ratio. On tall ones (200 x 100,
# 600 x 150 and 1200 x 100) it differs by at most 3.3e-9, 3.7e-8 and
# 2.3e-7: 0.05-0.2 · eps / ratio. At 1e-8 no component moves by more than
# about sqrt(eps) / 4, and every committed benchmark input still takes the
# Gram route (ratios 5e-7 to 2e-2), the tall tables of ``sweep_pairs``
# (600 x 100 and 600 x 150, 1e-2 to 2e-2) among them.
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
    of the projected fit data, clamped to [0, 1].
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
FAILURES = (NumericalError, DimensionError, MissingReductionError)


def caught(compute, *args):
    """``compute(*args)``, or the failure it raised, kept for whatever is built on it."""
    try:
        return compute(*args)
    except FAILURES as exc:
        return exc


def _gram_svd(X, mean):
    """Singular values and right singular vectors of ``X - mean`` from its smaller Gram matrix.

    Returns the leading ``min(n - 1, d)`` of each, or None where the Gram
    route does not apply (see ``pca_fit``). The centred input is scaled
    in place and dropped once no longer read: after the Gram on the
    ``Cᵀ C`` route, so no n x d copy is held during the ``eigh``. The Gram
    is dropped after its ``eigh``.
    """
    n, d = X.shape
    k = min(n - 1, d)
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

    The leading k right singular vectors do not depend on k, and which of
    two routes decomposes the centred n x d input depends on ``X`` alone,
    never on k, so ``pca_fit(X, k)`` is bitwise the leading k components
    and variances of ``pca_fit(X, m)`` for any valid ``m > k``:

    - Where ``min(n, d) >= GRAM_MIN_SIDE``, tall or wide, the Gram route:
      ``eigh`` of the smaller Gram matrix, ``C Cᵀ`` (n x n) when ``n < d``
      and ``Cᵀ C`` (d x d) otherwise, of the centred input C scaled by the
      exact power of two ``2^-e`` that puts its largest magnitude in
      [0.5, 1). Its eigenvalues λ, in
      descending order, give ``s = sqrt(λ) · 2^e``. For ``Cᵀ C`` the rows
      of Vᵀ are its eigenvectors; for ``C Cᵀ`` they are ``(Uᵀ C) / s``.
      The leading ``min(n - 1, d)`` rows are formed, whatever k is. No
      n x d U is formed, and the Gram is far cheaper to decompose than the
      input: a 400 x 1024 fit took 30-33 ms against 112-114 ms
      by the direct SVD, a 600 x 150 one 2.0 ms against 7.5 ms by QR and
      the SVD of R. A tall input whose centred column norm overflows fails
      here as an overflowing PCA variance, as a wide one does.
    - The SVD of the centred input, where the Gram route does not apply: a
      smaller input, or one whose Gram ``eigh`` fails or returns
      non-finite values, or has ``λ₁ <= 0``, or ``λ_m <= GRAM_BOUND · λ₁``
      at ``m = min(n - 1, d)``, the smallest eigenvalue any valid k reads.
      A Gram squares the condition number, and the ``C Cᵀ`` route divides
      by s, so a rank-deficient, constant or near-singular input takes
      this route. A tall input (``n >= 2 * d``) is decomposed through the
      d x d triangular factor R of its QR factorization, which has the
      singular values and right singular vectors of the centred input;
      neither Q nor an n x d U is formed. Past its own crossover (``n >=
      11 * d / 6``) LAPACK's ``gesdd`` runs that same QR and then
      decomposes R, so the model is bitwise the one of a direct SVD,
      except where ``gesdd`` rescales the centred input or R, at a largest
      magnitude above about 1e137 or below about 1e-138: there the two
      differ by rounding, and a centred column whose norm overflows fails
      as a non-finite PCA input rather than as an overflowing variance.

    Above the bound, components of the Gram route differ from those of
    the direct SVD by at most about 0.3 · eps / (λ_m / λ₁), which is at
    most about 3e-9 for any input it accepts and below 1e-12 on
    well-conditioned inputs; variances differ by about as much, relative
    to the largest.

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
    gram = _gram_svd(X, mean) if min(n, d) >= GRAM_MIN_SIDE else None
    if gram is not None:
        s, vt = gram
    else:
        centred = X - mean
        if n >= 2 * d:
            # the SVD of R gives what the SVD of QR = centred gives, without Q or an n x d U
            centred = np.linalg.qr(centred, mode="r")
        _, s, vt = _decompose(np.linalg.svd, centred, "centered PCA input",
                              full_matrices=False)
    with np.errstate(over="ignore"):  # an overflowing variance is rejected below
        variance = np.maximum(s[:k] ** 2 / (n - 1), 0.0)
    variance = _check_finite(variance, "PCA variance")
    components, _ = _fix_signs(vt[:k].T)
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
    """The inverse square root of a side's ridged covariance, as a matrix or its diagonal.

    ``(C + ridge I)^(-1/2)`` from the ``eigh`` of the side's covariance C,
    or, where its column ``variances`` are given (uncorrelated columns),
    the vector ``1 / sqrt(variances + ridge)``. Singular, a
    ``NumericalError``, where the ridged eigenvalues (or ``variances +
    ridge``) have ``min <= d · eps · max``.
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
        return (evecs / np.sqrt(evals)) @ evecs.T
    return 1.0 / np.sqrt(evals)


def _whiten(isqrt, m):
    """``isqrt @ m``, for a whitening matrix or the diagonal of one."""
    return isqrt @ m if isqrt.ndim == 2 else isqrt[:, None] * m


def cca_fit(X, Y, k, ridge=DEFAULT_RIDGE, variances=None):
    """Regularized CCA of co-indexed ``X`` (n x d1) and ``Y`` (n x d2) at ``k`` pairs.

    Components are ordered by non-increasing whitened singular value; the
    stored correlations are the sample correlations of the projected fit
    data, which coincide with those singular values as ridge -> 0. The
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
    isqrt_x = _whitening(Xc, var_x, ridge, "first-view")
    isqrt_y = _whitening(Yc, var_y, ridge, "second-view")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected by the SVD's finite check
        cxy = Xc.T @ Yc / (n - 1)
    whitened = isqrt_x @ cxy @ isqrt_y if variances is None else _whiten(isqrt_x, cxy) * isqrt_y
    u, _, vt = _decompose(np.linalg.svd, whitened, "whitened cross covariance",
                          full_matrices=False)
    proj_x = _whiten(isqrt_x, u[:, :k])
    proj_y = _whiten(isqrt_y, vt[:k].T)
    # joint sign fix: the flip is decided on the stacked component so that
    # swapping (X, Y) yields exactly swapped projections
    _, flips = _fix_signs(np.vstack([proj_x, proj_y]))
    proj_x = proj_x * flips
    proj_y = proj_y * flips
    correlations = _sample_correlations(Xc @ proj_x, Yc @ proj_y)
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


def _sample_correlations(A, B):
    """Per column pair of ``A`` and ``B``, its sample correlation; centres both in place."""
    A -= A.mean(axis=0)
    B -= B.mean(axis=0)
    num = np.einsum("ij,ij->j", A, B)
    den = np.sqrt(np.einsum("ij,ij->j", A, A) * np.einsum("ij,ij->j", B, B))
    out = np.zeros(A.shape[1])
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


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


def rcca_residual(original, projected, pca=None):
    """Difference between a signal and its shared-space projection.

    With equal dimensions this is plain elementwise subtraction. When the
    original is wider than the projection it must first be reduced to the
    projection's dimensionality; ``pca`` supplies that reduction and must
    have been fit on the original signal.
    """
    original = _check_matrix(original, "original")
    projected = _check_matrix(projected, "projected")
    if original.shape[0] != projected.shape[0]:
        raise DimensionError(
            f"row counts differ: original {original.shape[0]}, "
            f"projected {projected.shape[0]}"
        )
    d = original.shape[1]
    k = projected.shape[1]
    if d == k:
        return original - projected
    if pca is None:
        raise MissingReductionError(
            f"original dim {d} != projected dim {k}: a PCA reduction "
            "of the original signal is required"
        )
    if pca.dim_in != d or pca.k != k:
        raise DimensionError(
            f"reducer maps {pca.dim_in} -> {pca.k}, need {d} -> {k}"
        )
    return pca_transform(pca, original) - projected
