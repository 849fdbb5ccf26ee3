"""State representations and conversions for two-qubit X states.

BASIS CONVENTION
----------------
All 4x4 matrices are written in the product basis

    B = {|11>, |10>, |01>, |00>}

with the *excited* single-qubit state |1> first, i.e. index 0 is |11> and
index 3 is |00>.  Most quantum libraries order |00> first; matrices taken
from elsewhere usually need their axes reversed before being used here.
sigma_3 = diag(1, -1) so that sigma_3 |1> = +|1>.

Three encodings are supported and interconvertible:

* ``DensityMatrix4`` - dense complex matrix, the universal form;
* ``XStateParams``   - the eight real parameters of an X-shaped matrix
  (four diagonal entries, two coherence magnitudes, two phases);
* ``BlochForm``      - local Bloch vectors x, y and the 3x3 correlation
  tensor T of the Pauli expansion.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

# ID2 and PAULI are re-exported: the Pauli table lives in _kernels.
from ._kernels import ID2, PAULI, _PAULI_PRODUCTS, z_bloch
from .errors import InvalidStateError, NotAnXStateError
from .tolerances import HERMITIAN, PSD_FLOOR, TRACE, X_PATTERN

TWO_PI = 2.0 * math.pi


def wrap_phase(g):
    """A phase, or an array of them, wrapped into [0, 2*pi) with the same
    bits for both: fmod by TWO_PI, plus TWO_PI where that is negative, and
    +0.0 where the result is zero or rounds up to TWO_PI."""
    if isinstance(g, np.ndarray):
        g = np.fmod(g, TWO_PI)
        g = np.where(g < 0.0, g + TWO_PI, g)
        return np.where((g == 0.0) | (g == TWO_PI), 0.0, g)
    g = math.fmod(g, TWO_PI)
    g = g + TWO_PI if g < 0.0 else g
    return 0.0 if g == 0.0 or g == TWO_PI else g


# Index pairs (0-based) that must vanish for the X pattern.
_NON_X_ENTRIES = (
    (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2),
)


def _frozen_array(values, shape):
    arr = np.array(values, dtype=np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("non-finite entries in %r" % (values,))
    arr.setflags(write=False)
    return arr


def hs_norm_sq(delta):
    """Squared Hilbert-Schmidt norm Tr(delta^2) of a Hermitian matrix."""
    delta = np.asarray(delta)
    return float(np.sum(delta.real**2 + delta.imag**2))


@dataclass(frozen=True)
class DensityMatrix4:
    """Dense 4x4 density matrix in the basis {|11>,|10>,|01>,|00>}.

    Construction only checks shape and finiteness; :meth:`validate`
    enforces Hermiticity, unit trace and positivity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise InvalidStateError("expected a 4x4 matrix, got %r" % (m.shape,))
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidStateError("non-finite matrix entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def validate(self) -> "DensityMatrix4":
        """One-matrix view of :func:`check_densities`; returns self."""
        check_densities(self.matrix[None])
        return self

    def purity(self) -> float:
        return hs_norm_sq(self.matrix)


def check_densities(m: np.ndarray) -> np.ndarray:
    """Validate an (n, 4, 4) stack of finite matrices as ``validate`` would.

    Returns the stack; the first invalid matrix raises its error."""
    herm = np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
    tr = np.abs(np.trace(m, axis1=1, axis2=2) - 1.0)
    lo = np.linalg.eigvalsh(m).min(axis=1)
    herm_bad, tr_bad = herm > HERMITIAN, tr > TRACE
    for i in np.flatnonzero(herm_bad | tr_bad | (lo < -PSD_FLOOR))[:1]:
        problems = [text % v[i] for text, v, bad in (
            ("not Hermitian (max deviation %.3e)", herm, herm_bad),
            ("trace differs from 1 by %.3e", tr, tr_bad)) if bad[i]]
        problems = problems or ["negative eigenvalue %.3e" % lo[i]]
        raise InvalidStateError(
            "invalid density matrix: " + "; ".join(problems), problems)
    return m


# The messages of the x_state_violations flags, formatting its values.
_VIOLATIONS = (
    "diagonal sums to 1 off by {0:.3e}",
    "coherence magnitudes must be nonnegative",
    "outer block not positive: least eigenvalue {1:.3e}",
    "inner block not positive: least eigenvalue {2:.3e}",
)


@dataclass(frozen=True)
class XStateParams:
    """The eight real parameters of an X-shaped density matrix.

    ``rho14``/``rho23`` are the *magnitudes* of the two coherences (always
    nonnegative); ``gamma14``/``gamma23`` their phases, wrapped into
    [0, 2*pi) on construction by :func:`wrap_phase`: a phase whose wrap is
    zero, or rounds up to 2*pi, is stored as +0.0.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: float
    rho23: float
    gamma14: float = 0.0
    gamma23: float = 0.0

    def __post_init__(self):
        vals = [self.rho11, self.rho22, self.rho33, self.rho44,
                self.rho14, self.rho23, self.gamma14, self.gamma23]
        if not all(map(math.isfinite, vals)):
            raise InvalidStateError("non-finite X-state parameter")
        object.__setattr__(self, "gamma14", wrap_phase(self.gamma14))
        object.__setattr__(self, "gamma23", wrap_phase(self.gamma23))
        flags, values = x_state_violations(
            self.rho11, self.rho22, self.rho33, self.rho44,
            self.rho14, self.rho23)
        if any(flags):
            problems = [text.format(*values)
                        for text, bad in zip(_VIOLATIONS, flags) if bad]
            raise InvalidStateError(
                "invalid X-state parameters: " + "; ".join(problems), problems
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.rho11, self.rho22, self.rho33, self.rho44,
                         self.rho14, self.rho23, self.gamma14, self.gamma23])

    def to_matrix(self) -> DensityMatrix4:
        """One-row view of :func:`x_matrices`."""
        return DensityMatrix4(x_matrices(self.as_array()[None])[0])


def block_least_eigenvalue(a, b, c):
    """Least eigenvalue (a + b)/2 - sqrt(((a - b)/2)^2 + c^2) of [[a, c],
    [c, b]], on floats or arrays with the same bits: both square roots are
    correctly rounded.  With c = 0 it is min(a, b), up to rounding."""
    h = 0.5 * (a - b)
    s = h * h + c * c
    return 0.5 * (a + b) - (math.sqrt(s) if isinstance(s, float)
                            else np.sqrt(s))


def product_least_eigenvalue(na, nb):
    """Least eigenvalue min((1 - h)(1 - l), (1 - h)(1 + l))/4 of the
    eigenvalues (1 +- na)(1 +- nb)/4 of rho_A (x) rho_B, with h and l the
    larger and smaller Bloch vector norm; floats and arrays get equal bits."""
    h, low = np.maximum(na, nb), np.minimum(na, nb)
    return np.minimum((1.0 - h) * (1.0 - low), (1.0 - h) * (1.0 + low)) / 4.0


def x_state_violations(r11, r22, r33, r44, r14, r23):
    """The four X-state thresholds, on floats or numpy columns alike.

    Returns one flag per threshold (trace, negative coherence, outer and
    inner block) and the values (|trace - 1|, each block's least
    eigenvalue).  The matrix's eigenvalues are its blocks', so a block
    fails below -``PSD_FLOOR`` as in :func:`check_densities`.  Floats and
    arrays get the same bits; NaN violates nothing, so check finiteness.
    """
    trace_off = abs(r11 + r22 + r33 + r44 - 1.0)
    outer = block_least_eigenvalue(r11, r44, r14)
    inner = block_least_eigenvalue(r22, r33, r23)
    return (trace_off > TRACE, (r14 < 0.0) | (r23 < 0.0),
            outer < -PSD_FLOOR, inner < -PSD_FLOOR), (trace_off, outer, inner)


def check_x_rows(params: np.ndarray) -> None:
    """Validate an (n, 8) X-parameter array as :class:`XStateParams` would.

    The first row that is not finite or that :func:`x_state_violations`
    flags is built as an :class:`XStateParams`, which raises the error.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        flags, _ = x_state_violations(*params[:, :6].T)
    bad = np.flatnonzero(~np.isfinite(params).all(axis=1)
                         | np.any(flags, axis=0))
    if bad.size:
        XStateParams(*params[bad[0]].tolist())


def x_matrices(params: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) matrices of an (n, 8) X-parameter array, unvalidated;
    phases are wrapped by :func:`wrap_phase`."""
    c = params[:, 4:6] * np.exp(1j * wrap_phase(params[:, 6:]))
    m = np.zeros((params.shape[0], 4, 4), dtype=np.complex128)
    m[:, range(4), range(4)] = params[:, :4]
    m[:, 0, 3], m[:, 1, 2] = c.T
    m[:, 3, 0], m[:, 2, 1] = c.conj().T
    return m


@dataclass(frozen=True)
class BlochForm:
    """Bloch decomposition: local vectors x, y and correlation tensor T.
    Only shape and finiteness are checked, as for :class:`DensityMatrix4`;
    positivity is ``bloch_compose(b).validate()``."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, (3,)))
        object.__setattr__(self, "y", _frozen_array(self.y, (3,)))
        object.__setattr__(self, "T", _frozen_array(self.T, (3, 3)))


def bloch_components(m: np.ndarray):
    """x, y (n, 3) and T (n, 3, 3) of an (n, 4, 4) stack by Pauli traces."""
    c = np.trace(m[:, None, None] @ _PAULI_PRODUCTS, axis1=-2, axis2=-1).real
    return c[:, 1:, 0], c[:, 0, 1:], c[:, 1:, 1:]


def bloch_decompose(rho: DensityMatrix4) -> BlochForm:
    """One-state view of :func:`bloch_components`, after validation."""
    x, y, T = bloch_components(rho.validate().matrix[None])
    return BlochForm(x[0], y[0], T[0])


def bloch_compose(b: BlochForm) -> DensityMatrix4:
    """Assemble the Pauli expansion.

    The result is Hermitian with unit trace by construction; positivity is
    *not* guaranteed and is checked separately via ``validate``.
    """
    m = _PAULI_PRODUCTS[0, 0].copy()
    for i in range(3):
        m += b.x[i] * _PAULI_PRODUCTS[i + 1, 0]
        m += b.y[i] * _PAULI_PRODUCTS[0, i + 1]
        for j in range(3):
            m += b.T[i, j] * _PAULI_PRODUCTS[i + 1, j + 1]
    return DensityMatrix4(m / 4.0)


def x_bloch_components(params: np.ndarray):
    """x, y (n, 3) and T (n, 3, 3) of an (n, 8) X-parameter array, from
    the closed form; phases are wrapped as in :func:`x_matrices`."""
    g = wrap_phase(params[:, 6:])
    (c14, c23), (s14, s23) = 2.0 * np.cos(g).T, 2.0 * np.sin(g).T
    r14, r23 = params[:, 4], params[:, 5]
    x, y = np.zeros((2, params.shape[0], 3))
    T = np.zeros((params.shape[0], 3, 3))
    x[:, 2], y[:, 2], T[:, 2, 2] = z_bloch(*params[:, :4].T)
    T[:, 0, 0] = c14 * r14 + c23 * r23
    T[:, 0, 1] = s23 * r23 - s14 * r14
    T[:, 1, 0] = -s14 * r14 - s23 * r23
    T[:, 1, 1] = c23 * r23 - c14 * r14
    return x, y, T


def x_params_to_bloch(p: XStateParams) -> BlochForm:
    """One-state view of :func:`x_bloch_components`."""
    x, y, T = x_bloch_components(p.as_array()[None])
    return BlochForm(x[0], y[0], T[0])


def matrix_to_x_params(rho: DensityMatrix4) -> XStateParams:
    """Recognize the X pattern of a dense matrix and extract its parameters.

    Raises :class:`NotAnXStateError` listing the offending entries when any
    of the eight non-X entries exceeds ``X_PATTERN`` in magnitude.
    The phase of a vanishing coherence is defined as 0.
    """
    m = rho.validate().matrix
    bad = [(i, j) for i, j in _NON_X_ENTRIES if abs(m[i, j]) > X_PATTERN]
    if bad:
        raise NotAnXStateError(
            "matrix has support outside the X pattern at entries %s" % (bad,),
            bad,
        )

    def mag_phase(z):
        mag = abs(z)
        if mag <= X_PATTERN:
            return mag, 0.0
        return mag, math.atan2(z.imag, z.real)

    r14, g14 = mag_phase(m[0, 3])
    r23, g23 = mag_phase(m[1, 2])
    return XStateParams(
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real,
        r14, r23, g14, g23,
    )


# ---------------------------------------------------------------------------
# JSON state files
# ---------------------------------------------------------------------------

_X_KEYS_REQUIRED = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")
_X_KEYS_OPTIONAL = ("gamma14", "gamma23")


def _check_number(value, name):
    """Raise ValueError unless ``value`` is a JSON number that is finite
    as a float: an int or float, not a bool."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError("%s must be a number" % name)
    try:
        finite = math.isfinite(value)
    except OverflowError as exc:
        raise ValueError("%s is too large for a float (%s)"
                         % (name, exc)) from None
    if not finite:
        raise ValueError("%s is not finite" % name)


def parse_state_json(text: str):
    """Parse a JSON state file into XStateParams or DensityMatrix4.

    Two forms are accepted::

        {"kind": "x", "rho11": ..., ..., "gamma14": ..., "gamma23": ...}
        {"kind": "dense", "re": [[...4x4...]], "im": [[...4x4...]]}

    Every entry must be a JSON number that is finite as a float.  Raises
    ValueError on malformed input and InvalidStateError on unphysical states.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("state file must contain a JSON object")
    kind = doc.get("kind")
    if kind == "x":
        known = set(_X_KEYS_REQUIRED) | set(_X_KEYS_OPTIONAL) | {"kind"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError("unknown keys in x-state file: %s" % unknown)
        missing = [k for k in _X_KEYS_REQUIRED if k not in doc]
        if missing:
            raise ValueError("missing keys in x-state file: %s" % missing)
        vals = {k: doc[k] for k in _X_KEYS_REQUIRED}
        vals.update({k: doc.get(k, 0.0) for k in _X_KEYS_OPTIONAL})
        for k, v in vals.items():
            _check_number(v, "field %r" % k)
        return XStateParams(**vals)
    if kind == "dense":
        unknown = sorted(set(doc) - {"kind", "re", "im"})
        if unknown:
            raise ValueError("unknown keys in dense-state file: %s" % unknown)
        for key in ("re", "im"):
            rows = doc.get(key)
            if not (isinstance(rows, list) and len(rows) == 4 and all(
                    isinstance(row, list) and len(row) == 4 for row in rows)):
                raise ValueError("%r must be a 4x4 array of numbers" % key)
            for i, j in np.ndindex(4, 4):
                _check_number(rows[i][j], "entry %r[%d][%d]" % (key, i, j))
        re, im = (np.array(doc[key], dtype=np.float64) for key in ("re", "im"))
        return DensityMatrix4(re + 1j * im)
    raise ValueError("state file 'kind' must be 'x' or 'dense', got %r" % kind)


def load_state_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_json(fh.read())


def state_to_json_dict(state) -> dict:
    if isinstance(state, XStateParams):
        return {"kind": "x", **asdict(state)}
    if isinstance(state, DensityMatrix4):
        return {
            "kind": "dense",
            "re": state.matrix.real.tolist(),
            "im": state.matrix.imag.tolist(),
        }
    raise TypeError("cannot serialize %r" % type(state))
