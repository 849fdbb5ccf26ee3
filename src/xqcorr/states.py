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

from ._kernels import z_bloch
from .errors import InvalidStateError, NotAnXStateError
from .tolerances import (BLOCH_BOUND, BLOCK_POSITIVITY, HERMITIAN,
                         PROB_FLOOR, PSD_FLOOR, TRACE, X_PATTERN)

TWO_PI = 2.0 * math.pi

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)
PAULI = (SIGMA1, SIGMA2, SIGMA3)
for _m in (*PAULI, ID2):
    _m.setflags(write=False)
# _PAULI_PRODUCTS[i, j] = s_i (x) s_j with s_0 = I and s_1..3 = PAULI: the
# entrywise products np.kron forms, without its 16 calls at import.
_ID_AND_PAULI = np.array([ID2, *PAULI])
_PAULI_PRODUCTS = (
    _ID_AND_PAULI[:, None, :, None, :, None]
    * _ID_AND_PAULI[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
_PAULI_PRODUCTS.setflags(write=False)

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
        m = self.matrix
        problems = []
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITIAN:
            problems.append("not Hermitian (max deviation %.3e)" % herm)
        tr = abs(m.trace() - 1.0)
        if tr > TRACE:
            problems.append("trace differs from 1 by %.3e" % tr)
        if not problems:
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -PSD_FLOOR:
                problems.append("negative eigenvalue %.3e" % lo)
        if problems:
            raise InvalidStateError(
                "invalid density matrix: " + "; ".join(problems), problems
            )
        return self

    def purity(self) -> float:
        return hs_norm_sq(self.matrix)


# The messages of the x_state_violations flags, in their order.
_VIOLATIONS = (
    "negative diagonal entry",
    "diagonal sums to 1 off by {:.3e}",
    "coherence magnitudes must be nonnegative",
    "outer block not positive: rho14^2 > rho11*rho44",
    "inner block not positive: rho23^2 > rho22*rho33",
)


@dataclass(frozen=True)
class XStateParams:
    """The eight real parameters of an X-shaped density matrix.

    ``rho14``/``rho23`` are the *magnitudes* of the two coherences (always
    nonnegative); ``gamma14``/``gamma23`` their phases, normalized into
    [0, 2*pi) on construction.
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
        for name in ("gamma14", "gamma23"):
            g = math.fmod(getattr(self, name), TWO_PI)
            if g < 0.0:
                g += TWO_PI
            object.__setattr__(self, name, g)
        self._check()

    def _check(self):
        flags, trace_off = x_state_violations(
            self.rho11, self.rho22, self.rho33, self.rho44,
            self.rho14, self.rho23)
        if any(flags):
            problems = [text.format(trace_off)
                        for text, bad in zip(_VIOLATIONS, flags) if bad]
            raise InvalidStateError(
                "invalid X-state parameters: " + "; ".join(problems), problems
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.rho11, self.rho22, self.rho33, self.rho44,
             self.rho14, self.rho23, self.gamma14, self.gamma23]
        )

    def to_matrix(self) -> DensityMatrix4:
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = (
            self.rho11, self.rho22, self.rho33, self.rho44,
        )
        c14 = self.rho14 * np.exp(1j * self.gamma14)
        c23 = self.rho23 * np.exp(1j * self.gamma23)
        m[0, 3] = c14
        m[3, 0] = c14.conjugate()
        m[1, 2] = c23
        m[2, 1] = c23.conjugate()
        return DensityMatrix4(m)


def x_state_violations(r11, r22, r33, r44, r14, r23):
    """The five X-state thresholds, on floats or numpy columns alike.

    Returns one violation flag per threshold (negative diagonal, trace,
    negative coherence, outer block, inner block) and |trace - 1|.  Floats
    and arrays get the same bits; NaN violates nothing, so check finiteness.
    """
    trace_off = abs(r11 + r22 + r33 + r44 - 1.0)
    return ((r11 < -PROB_FLOOR) | (r22 < -PROB_FLOOR)
            | (r33 < -PROB_FLOOR) | (r44 < -PROB_FLOOR),
            trace_off > TRACE,
            (r14 < 0.0) | (r23 < 0.0),
            r14 * r14 > r11 * r44 + BLOCK_POSITIVITY,
            r23 * r23 > r22 * r33 + BLOCK_POSITIVITY), trace_off


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


@dataclass(frozen=True)
class BlochForm:
    """Bloch decomposition: local vectors x, y and correlation tensor T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, (3,)))
        object.__setattr__(self, "y", _frozen_array(self.y, (3,)))
        object.__setattr__(self, "T", _frozen_array(self.T, (3, 3)))
        if (np.linalg.norm(self.x) > 1.0 + BLOCH_BOUND
                or np.linalg.norm(self.y) > 1.0 + BLOCH_BOUND):
            raise InvalidStateError("Bloch vector norm exceeds 1")
        if np.max(np.abs(self.T)) > 1.0 + BLOCH_BOUND:
            raise InvalidStateError("correlation tensor entry exceeds 1")


def bloch_decompose(rho: DensityMatrix4) -> BlochForm:
    """Extract x_i, y_i, T_ij as Pauli traces of a valid density matrix."""
    m = rho.validate().matrix
    x = np.empty(3)
    y = np.empty(3)
    T = np.empty((3, 3))
    for i in range(3):
        x[i] = np.trace(m @ _PAULI_PRODUCTS[i + 1, 0]).real
        y[i] = np.trace(m @ _PAULI_PRODUCTS[0, i + 1]).real
        for j in range(3):
            T[i, j] = np.trace(m @ _PAULI_PRODUCTS[i + 1, j + 1]).real
    return BlochForm(x, y, T)


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


def x_params_to_bloch(p: XStateParams) -> BlochForm:
    """Seven nonzero Bloch components of an X state."""
    c14, s14 = math.cos(p.gamma14), math.sin(p.gamma14)
    c23, s23 = math.cos(p.gamma23), math.sin(p.gamma23)
    x3, y3, t33 = z_bloch(p.rho11, p.rho22, p.rho33, p.rho44)
    T = np.zeros((3, 3))
    T[0, 0] = 2.0 * c14 * p.rho14 + 2.0 * c23 * p.rho23
    T[0, 1] = -2.0 * s14 * p.rho14 + 2.0 * s23 * p.rho23
    T[1, 0] = -2.0 * s14 * p.rho14 - 2.0 * s23 * p.rho23
    T[1, 1] = -2.0 * c14 * p.rho14 + 2.0 * c23 * p.rho23
    T[2, 2] = t33
    return BlochForm((0.0, 0.0, x3), (0.0, 0.0, y3), T)


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
        return mag, math.atan2(z.imag, z.real) % TWO_PI

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


def _reject_constants(token):
    raise ValueError("non-finite number %r not allowed in state files" % token)


def parse_state_json(text: str):
    """Parse a JSON state file into XStateParams or DensityMatrix4.

    Two forms are accepted::

        {"kind": "x", "rho11": ..., ..., "gamma14": ..., "gamma23": ...}
        {"kind": "dense", "re": [[...4x4...]], "im": [[...4x4...]]}

    NaN/Infinity tokens are rejected.  Raises ValueError on malformed input
    and InvalidStateError on unphysical states.
    """
    doc = json.loads(text, parse_constant=_reject_constants)
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
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError("field %r must be a number" % k)
            try:
                finite = math.isfinite(v)
            except OverflowError:
                raise ValueError("field %r is too large for a float"
                                 % k) from None
            if not finite:
                raise ValueError("field %r is not finite" % k)
        return XStateParams(**vals)
    if kind == "dense":
        unknown = sorted(set(doc) - {"kind", "re", "im"})
        if unknown:
            raise ValueError("unknown keys in dense-state file: %s" % unknown)
        try:
            re = np.array(doc["re"], dtype=np.float64)
            im = np.array(doc["im"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError("dense state needs numeric 're' and 'im' 4x4 "
                             "arrays: %s" % exc) from exc
        if re.shape != (4, 4) or im.shape != (4, 4):
            raise ValueError("'re' and 'im' must both be 4x4 arrays")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("dense state entries must be finite")
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
