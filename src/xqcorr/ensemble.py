"""Random X-state generation and non-additivity histogram experiments.

Sampling convention (the source material leaves the measure open): the
diagonal is uniform on the 3-simplex via sorted-uniform spacings, the two
coherence magnitudes are uniform fractions of their positivity bounds
(rho14 = u * sqrt(rho11*rho44), rho23 = v * sqrt(rho22*rho33)), and phases
are uniform on [0, 2*pi) or pinned to zero.  Positivity holds by
construction.  Histogram shapes under a different measure would differ
bin-by-bin; only the sign/tail properties are measure-independent.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .closest import CaseId, x_report_rows
from .errors import RejectionExhaustionError
from .quantifiers import CSV_FLOAT, csv_chunks, write_text
from .states import TWO_PI, XStateParams
from .tolerances import HISTOGRAM_EDGE, TG_FLOOR

_BATCH = 4096
_ACCEPTANCE_WINDOW = 20000
_MIN_ACCEPTANCE = 1e-4
# Histogram values binned per np.histogram call, whose cost has an
# O(bin_count) part.
_BIN_VALUES = 32768
_HIST_ROW_FORMAT = ",".join([CSV_FLOAT] * 2 + ["%d"])


class PhaseMode(str, enum.Enum):
    FREE = "free"
    ZERO = "zero"


class Quantity(str, enum.Enum):
    REL_RESIDUAL = "rel_residual"
    REL_RESIDUAL_WITH_L = "rel_residual_with_l"


DEFAULT_RANGES = {
    Quantity.REL_RESIDUAL: (-1.0, 0.0),
    Quantity.REL_RESIDUAL_WITH_L: (0.0, 0.5),
}


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int
    case_filter: Optional[CaseId] = None
    phase_mode: PhaseMode = PhaseMode.FREE

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        object.__setattr__(self, "phase_mode", PhaseMode(self.phase_mode))
        if self.case_filter is not None:
            object.__setattr__(self, "case_filter", CaseId(self.case_filter))

    def to_json_dict(self) -> dict:
        """The sampler's keys of a ``.meta.json`` sidecar."""
        return {
            "seed": self.seed,
            "count": self.count,
            "case_filter": (None if self.case_filter is None
                            else int(self.case_filter)),
            "phase_mode": self.phase_mode.value,
        }


@dataclass(frozen=True)
class HistogramSpec:
    bin_count: int
    lo: float
    hi: float
    quantity: Quantity

    def __post_init__(self):
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")
        if not self.lo < self.hi:
            raise ValueError("histogram range must satisfy lo < hi")
        if not math.isfinite(self.hi - self.lo):  # only if lo, hi are too
            raise ValueError("histogram range must have a finite width")
        object.__setattr__(self, "quantity", Quantity(self.quantity))

    @classmethod
    def default_for(cls, quantity, bin_count: int = 200,
                    span=None) -> "HistogramSpec":
        """The spec of ``quantity``, on its default range unless ``span``."""
        quantity = Quantity(quantity)
        lo, hi = DEFAULT_RANGES[quantity] if span is None else span
        return cls(bin_count, lo, hi, quantity)


def _case_mask(batch: np.ndarray, case_filter: CaseId) -> np.ndarray:
    return _kernels.k_eigenvalues(batch)[3] == float(case_filter)


def _sort3(u0, u1, u2):
    """The three arrays sorted elementwise, by a min/max network.

    Each output is one of the inputs' floats, so the result is what a sort
    gives, ties and zeros included.
    """
    lo, hi = np.minimum(u0, u1), np.maximum(u0, u1)
    mid = np.maximum(lo, u2)
    return np.minimum(lo, u2), np.minimum(mid, hi), np.maximum(mid, hi)


def _draw_batch(rng: np.random.Generator, size: int,
                phase_mode: PhaseMode) -> np.ndarray:
    # The diagonal is the four spacings between 0, the sorted cuts and 1.
    c0, c1, c2 = _sort3(*rng.random((size, 3)).T)
    fracs = rng.random((size, 2))
    batch = np.empty((size, 8))
    if phase_mode is PhaseMode.FREE:
        batch[:, 6:8] = rng.random((size, 2)) * TWO_PI
    else:
        batch[:, 6:8] = 0.0
    batch[:, 0] = c0
    batch[:, 1] = d1 = c1 - c0
    batch[:, 2] = d2 = c2 - c1
    batch[:, 3] = d3 = 1.0 - c2
    batch[:, 4] = fracs[:, 0] * np.sqrt(c0 * d3)
    batch[:, 5] = fracs[:, 1] * np.sqrt(d1 * d2)
    return batch


def sample_x_chunks(cfg: SamplerConfig):
    """Sample X states as (m, 8) parameter arrays, one chunk at a time.

    Yields (chunk, accepted, drawn): the next ``_kernels.CHUNK_ROWS`` rows
    in sampling order, and the draws accepted and made so far.  The chunks
    concatenate to ``cfg.count`` rows, only the last one shorter; at it
    accepted / drawn is the run's acceptance rate.  The draws come in
    4096-row batches in one generator order whatever the chunk size, and
    the case filter keeps rows of each batch, so every row is the same as
    in :func:`sample_x_arrays`.  Raises :class:`RejectionExhaustionError`
    when the case filter accepts fewer than 1 in 10^4 draws over a
    sampling window.
    """
    rng = np.random.default_rng(cfg.seed)
    pending = np.empty((0, 8))
    accepted = drawn = emitted = 0
    while emitted < cfg.count:
        batch = _draw_batch(rng, _BATCH, cfg.phase_mode)
        drawn += _BATCH
        if cfg.case_filter is not None:
            batch = batch[_case_mask(batch, cfg.case_filter)]
        accepted += batch.shape[0]
        if drawn >= _ACCEPTANCE_WINDOW and accepted / drawn < _MIN_ACCEPTANCE:
            raise RejectionExhaustionError(
                "acceptance rate %.2e below %.0e after %d draws; "
                "the requested filter looks unreachable"
                % (accepted / drawn, _MIN_ACCEPTANCE, drawn)
            )
        pending = np.concatenate((pending, batch))
        if accepted >= cfg.count:  # the last batch: trim it, emit the rest
            pending = pending[:cfg.count - emitted]
            ready = pending.shape[0]
        else:
            ready = pending.shape[0] - pending.shape[0] % _kernels.CHUNK_ROWS
        for rows in _kernels.row_chunks(ready):
            yield pending[rows], accepted, drawn
        emitted += ready
        pending = pending[ready:]


def sample_x_arrays(cfg: SamplerConfig):
    """Sample X states as an (count, 8) parameter array.

    Returns (array, acceptance_rate): the chunks of
    :func:`sample_x_chunks`, joined.  Deterministic for a fixed config.
    """
    out = np.empty((cfg.count, 8))
    stop = 0
    for chunk, accepted, drawn in sample_x_chunks(cfg):
        out[stop:stop + chunk.shape[0]] = chunk
        stop += chunk.shape[0]
    return out, accepted / drawn


def sample_x_states(cfg: SamplerConfig):
    """Sample exactly ``cfg.count`` valid X states (validated objects)."""
    arr, _ = sample_x_arrays(cfg)
    return [XStateParams(*row) for row in arr.tolist()]


@dataclass(frozen=True)
class HistogramResult:
    spec: HistogramSpec
    edges: np.ndarray
    counts: np.ndarray
    total: int
    dropped: int
    underflow: int
    overflow: int
    acceptance_rate: float
    config: SamplerConfig

    def _csv_chunks(self):
        # The CSV as strings to write, one per chunk of bins after the header.
        def lines(rows):
            return [_HIST_ROW_FORMAT % row for row in zip(
                self.edges[:-1][rows].tolist(), self.edges[1:][rows].tolist(),
                self.counts[rows].tolist())]
        return csv_chunks("bin_lo,bin_hi,count",
                          map(lines, _kernels.row_chunks(self.counts.size)))

    def to_csv(self) -> str:
        return "".join(self._csv_chunks())

    def sidecar_dict(self) -> dict:
        return {
            **self.config.to_json_dict(),
            "quantity": self.spec.quantity.value,
            "bin_count": self.spec.bin_count,
            "range": [self.spec.lo, self.spec.hi],
            "acceptance_rate": self.acceptance_rate,
            "total_binned": self.total,
            "dropped_zero_tg": self.dropped,
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


def relative_quantities(reports: np.ndarray, quantity: Quantity):
    """Per-state relative residuals from a batch report array.

    States with t_g at or below ``TG_FLOOR`` carry no relative value
    and are dropped; returns (values, dropped_count).
    """
    tg = reports[:, _kernels.COL_TG]
    keep = tg > TG_FLOOR
    col = (_kernels.COL_RES if quantity is Quantity.REL_RESIDUAL
           else _kernels.COL_RESL)
    return reports[keep, col] / tg[keep], int(np.count_nonzero(~keep))


def _bin(values: list, spec: HistogramSpec):
    """``np.histogram`` of the joined value arrays on the spec's bins."""
    return np.histogram(np.concatenate(values), bins=spec.bin_count,
                        range=(spec.lo, spec.hi))


def run_histogram(cfg: SamplerConfig, spec: HistogramSpec) -> HistogramResult:
    """Sample, compute quantifiers, and bin the requested relative residual.

    Values within ``HISTOGRAM_EDGE`` past a range edge are folded into
    the edge bin (pure floating-point slack); anything farther out lands in
    the underflow/overflow counters of the sidecar.  Each chunk of
    :func:`sample_x_chunks` is solved on its own, and its values are
    binned once ``_BIN_VALUES`` of them wait, so memory does not grow with
    ``cfg.count`` and a call's O(``bin_count``) cost is shared by many
    values.  With uniform bins a value's bin depends on the value alone, so
    the summed counts are those of one pass over all states.
    """
    counts = np.zeros(spec.bin_count, dtype=np.intp)
    dropped = underflow = overflow = 0
    waiting = []  # value arrays inside the range, not yet binned
    for params, accepted, drawn in sample_x_chunks(cfg):
        values, chunk_dropped = relative_quantities(x_report_rows(params),
                                                    spec.quantity)
        near_lo = (values < spec.lo) & (values >= spec.lo - HISTOGRAM_EDGE)
        near_hi = (values > spec.hi) & (values <= spec.hi + HISTOGRAM_EDGE)
        values = np.where(near_lo, spec.lo, values)
        values = np.where(near_hi, spec.hi, values)
        dropped += chunk_dropped
        underflow += int(np.count_nonzero(values < spec.lo))
        overflow += int(np.count_nonzero(values > spec.hi))
        if sum(map(len, waiting)) >= _BIN_VALUES:
            counts += _bin(waiting, spec)[0]
            waiting = []
        waiting.append(values[(values >= spec.lo) & (values <= spec.hi)])
    last, edges = _bin(waiting, spec)
    counts += last
    return HistogramResult(
        spec=spec, edges=edges, counts=counts, total=int(counts.sum()),
        dropped=dropped, underflow=underflow, overflow=overflow,
        acceptance_rate=accepted / drawn, config=cfg,
    )


def write_sidecar(path, doc: dict) -> None:
    """Write ``doc`` as the JSON metadata sidecar ``<path>.meta.json``."""
    write_text(str(path) + ".meta.json",
               json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_histogram(result: HistogramResult, path) -> None:
    """Write the histogram CSV plus its JSON metadata sidecar."""
    write_text(path, result._csv_chunks())
    write_sidecar(path, result.sidecar_dict())
