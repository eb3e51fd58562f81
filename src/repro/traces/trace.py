"""Utilization-trace containers and reference-utilization policies.

Everything the allocator consumes is expressed as a CPU *demand* signal in
units of cores-at-maximum-frequency: a value of ``2.5`` means the VM needs
the equivalent of 2.5 cores running at ``fmax`` to serve its load at that
instant.  This is the natural unit for the paper's capacity checks (a
server offers ``Ncore * f / fmax`` of it at frequency ``f``) and makes the
correlation cost of Eqn 1 a dimensionless ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.stats import pearson, percentile

__all__ = ["ReferenceSpec", "UtilizationTrace", "TraceSet"]


#: Peak-detection tolerance of :class:`ReferenceSpec`: a percentile within
#: this distance of 100 normalizes to exactly 100.0.  Sweep arithmetic
#: (``100 * (1 - eps)``-style expressions) lands within float rounding of
#: the peak, and without the clamp such values would silently take the
#: (much slower, subtly different) ``np.percentile`` path instead of
#: ``np.max`` — and miss every peak-only fast path downstream.
_PEAK_EPS = 1e-9


@dataclass(frozen=True)
class ReferenceSpec:
    """How to turn a utilization signal into a reference utilization.

    The paper provisions each VM at its *reference* utilization
    ``u_hat`` — "either the peak or the Nth percentile value depending on
    QoS requirement" (Section IV-A).  ``percentile=100`` selects the peak.

    The percentile is normalized on construction: any numeric type is
    coerced to ``float`` (so ``ReferenceSpec(100)`` equals
    ``ReferenceSpec(100.0)``) and values within :data:`_PEAK_EPS` of 100
    clamp to exactly 100.0, so computed sweep values hit the ``np.max``
    fast path rather than a float-equality miss.
    """

    percentile: float = 100.0

    def __post_init__(self) -> None:
        value = float(self.percentile)
        if value >= 100.0 - _PEAK_EPS:
            if value > 100.0 + _PEAK_EPS:
                raise ValueError(
                    f"reference percentile must lie in (0, 100], got {value}"
                )
            value = 100.0
        elif not value > 0.0:
            raise ValueError(
                f"reference percentile must lie in (0, 100], got {value}"
            )
        object.__setattr__(self, "percentile", value)

    def of(self, samples: np.ndarray) -> float:
        """Reference utilization of a raw sample array."""
        if self.is_peak:
            return float(np.max(samples))
        return percentile(samples, self.percentile)

    @property
    def is_peak(self) -> bool:
        """True when the reference is the plain maximum."""
        return self.percentile == 100.0


PEAK = ReferenceSpec(100.0)


class UtilizationTrace:
    """A uniformly sampled CPU-demand signal for one VM.

    Parameters
    ----------
    samples:
        Demand per sample, in cores-at-fmax.  Must be non-negative and
        finite.
    period_s:
        Sampling period in seconds (e.g. 300 for the coarse datacenter
        traces, 5 for the refined ones, 1 for the web-search testbed).
    name:
        Identifier used in reports and CSV headers.
    """

    __slots__ = ("_samples", "_period_s", "_name")

    def __init__(self, samples: Sequence[float] | np.ndarray, period_s: float, name: str = "") -> None:
        data = np.asarray(samples, dtype=float)
        if data.ndim != 1:
            raise ValueError(f"trace samples must be one-dimensional, got shape {data.shape}")
        if data.size == 0:
            raise ValueError("a trace needs at least one sample")
        if not np.all(np.isfinite(data)):
            raise ValueError("trace samples must be finite")
        if np.any(data < 0):
            raise ValueError("trace samples must be non-negative")
        if period_s <= 0:
            raise ValueError(f"sampling period must be positive, got {period_s}")
        self._samples = data
        self._samples.flags.writeable = False
        self._period_s = float(period_s)
        self._name = name

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> np.ndarray:
        """The raw (read-only) sample array."""
        return self._samples

    @property
    def period_s(self) -> float:
        """Sampling period in seconds."""
        return self._period_s

    @property
    def name(self) -> str:
        """Trace identifier."""
        return self._name

    @property
    def num_samples(self) -> int:
        """Number of samples in the trace."""
        return int(self._samples.size)

    @property
    def duration_s(self) -> float:
        """Covered wall-clock time in seconds."""
        return self.num_samples * self._period_s

    def times(self) -> np.ndarray:
        """Sample timestamps in seconds (left edge of each interval)."""
        return np.arange(self.num_samples, dtype=float) * self._period_s

    def __len__(self) -> int:
        return self.num_samples

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __repr__(self) -> str:
        return (
            f"UtilizationTrace(name={self._name!r}, samples={self.num_samples}, "
            f"period_s={self._period_s}, peak={self.peak():.3f})"
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def peak(self) -> float:
        """Maximum demand over the trace."""
        return float(np.max(self._samples))

    def mean(self) -> float:
        """Mean demand over the trace."""
        return float(np.mean(self._samples))

    def std(self) -> float:
        """Population standard deviation of the demand."""
        return float(np.std(self._samples))

    def percentile(self, q: float) -> float:
        """``q``-th percentile of the demand (``q`` in percent)."""
        return percentile(self._samples, q)

    def reference(self, spec: ReferenceSpec = PEAK) -> float:
        """Reference utilization ``u_hat`` under ``spec`` (default: peak)."""
        return spec.of(self._samples)

    def peak_to_mean(self) -> float:
        """Peak-to-mean ratio; infinite for an all-zero trace."""
        mean = self.mean()
        if mean == 0.0:
            return float("inf")
        return self.peak() / mean

    def pearson(self, other: UtilizationTrace) -> float:
        """Pearson correlation against another aligned trace."""
        self._require_aligned(other)
        return pearson(self._samples, other._samples)

    def envelope(self, offpeak_percentile: float = 90.0) -> np.ndarray:
        """Binary envelope per Verma et al. (the PCP baseline's feature).

        The envelope is 1 wherever the sample exceeds the trace's own
        ``offpeak_percentile`` value, else 0.  PCP clusters VMs whose
        envelopes overlap and spreads the clusters across servers.
        """
        threshold = self.percentile(offpeak_percentile)
        return (self._samples > threshold).astype(np.int8)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> UtilizationTrace:
        """Sub-trace covering sample indices ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_samples:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for {self.num_samples} samples"
            )
        return UtilizationTrace(self._samples[start:stop].copy(), self._period_s, self._name)

    def window(self, start_s: float, stop_s: float) -> UtilizationTrace:
        """Sub-trace covering wall-clock seconds ``[start_s, stop_s)``."""
        start = int(round(start_s / self._period_s))
        stop = int(round(stop_s / self._period_s))
        return self.slice(start, stop)

    def scaled(self, factor: float) -> UtilizationTrace:
        """Trace with every sample multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return UtilizationTrace(self._samples * factor, self._period_s, self._name)

    def clipped(self, cap: float) -> UtilizationTrace:
        """Trace with samples clipped to ``[0, cap]`` (a VM's core cap)."""
        if cap <= 0:
            raise ValueError("cap must be positive")
        return UtilizationTrace(np.minimum(self._samples, cap), self._period_s, self._name)

    def renamed(self, name: str) -> UtilizationTrace:
        """Identical trace with a different name."""
        return UtilizationTrace(self._samples.copy(), self._period_s, name)

    def resampled(self, new_period_s: float) -> UtilizationTrace:
        """Average-preserving resample to a coarser period.

        ``new_period_s`` must be an integer multiple of the current period;
        each coarse sample is the mean of the fine samples it covers (this
        is how a 5-minute monitoring value summarises 5-second behaviour).
        A trailing partial window is dropped.
        """
        ratio = new_period_s / self._period_s
        factor = int(round(ratio))
        if factor < 1 or abs(ratio - factor) > 1e-9:
            raise ValueError(
                f"new period {new_period_s}s is not an integer multiple of {self._period_s}s"
            )
        if factor == 1:
            return UtilizationTrace(self._samples.copy(), self._period_s, self._name)
        usable = (self.num_samples // factor) * factor
        if usable == 0:
            raise ValueError("trace too short for the requested resampling")
        coarse = self._samples[:usable].reshape(-1, factor).mean(axis=1)
        return UtilizationTrace(coarse, new_period_s, self._name)

    def __add__(self, other: UtilizationTrace) -> UtilizationTrace:
        """Sample-wise aggregate demand of two co-located VMs."""
        self._require_aligned(other)
        name = f"{self._name}+{other._name}" if self._name and other._name else ""
        return UtilizationTrace(self._samples + other._samples, self._period_s, name)

    def _require_aligned(self, other: UtilizationTrace) -> None:
        if not isinstance(other, UtilizationTrace):
            raise TypeError(f"expected UtilizationTrace, got {type(other).__name__}")
        if other._period_s != self._period_s:
            raise ValueError(
                f"period mismatch: {self._period_s}s vs {other._period_s}s"
            )
        if other.num_samples != self.num_samples:
            raise ValueError(
                f"length mismatch: {self.num_samples} vs {other.num_samples} samples"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        duration_s: float,
        period_s: float,
        name: str = "",
    ) -> UtilizationTrace:
        """Sample ``fn(times) -> demand`` on a uniform grid.

        Negative function values are clipped to zero, since a demand signal
        cannot be negative (load generators built from raw sinusoids would
        otherwise need their own clipping).
        """
        n = int(round(duration_s / period_s))
        if n <= 0:
            raise ValueError("duration must cover at least one sample")
        times = np.arange(n, dtype=float) * period_s
        values = np.maximum(np.asarray(fn(times), dtype=float), 0.0)
        return cls(values, period_s, name)

    @classmethod
    def constant(cls, value: float, num_samples: int, period_s: float, name: str = "") -> UtilizationTrace:
        """A flat trace — useful for tests and idle front-end VMs."""
        return cls(np.full(num_samples, float(value)), period_s, name)


class TraceSet:
    """An aligned, named collection of traces (one per VM).

    All member traces share the same sampling period and length, which is
    what the pairwise cost matrix and the replay simulator require.  The
    container preserves insertion order; positional indices are used as VM
    indices throughout the allocator.
    """

    __slots__ = ("_names", "_matrix", "_period_s")

    def __init__(self, traces: Iterable[UtilizationTrace]) -> None:
        traces = list(traces)
        if not traces:
            raise ValueError("a TraceSet needs at least one trace")
        first = traces[0]
        names: list[str] = []
        rows: list[np.ndarray] = []
        for trace in traces:
            first._require_aligned(trace)
            if not trace.name:
                raise ValueError("every trace in a TraceSet must be named")
            if trace.name in names:
                raise ValueError(f"duplicate trace name {trace.name!r}")
            names.append(trace.name)
            rows.append(trace.samples)
        self._names = tuple(names)
        self._matrix = np.vstack(rows)
        self._matrix.flags.writeable = False
        self._period_s = first.period_s

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Trace names in positional order."""
        return self._names

    @property
    def period_s(self) -> float:
        """Common sampling period in seconds."""
        return self._period_s

    @property
    def num_traces(self) -> int:
        """Number of member traces."""
        return len(self._names)

    @property
    def num_samples(self) -> int:
        """Number of samples per member trace."""
        return int(self._matrix.shape[1])

    @property
    def duration_s(self) -> float:
        """Covered wall-clock time in seconds."""
        return self.num_samples * self._period_s

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(num_traces, num_samples)`` demand matrix."""
        return self._matrix

    def index_of(self, name: str) -> int:
        """Positional index of the trace called ``name``."""
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"no trace named {name!r}") from None

    def __len__(self) -> int:
        return self.num_traces

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __getitem__(self, key: int | str) -> UtilizationTrace:
        if isinstance(key, str):
            key = self.index_of(key)
        return UtilizationTrace(self._matrix[key].copy(), self._period_s, self._names[key])

    def __iter__(self) -> Iterator[UtilizationTrace]:
        for i in range(self.num_traces):
            yield self[i]

    def __repr__(self) -> str:
        return (
            f"TraceSet(traces={self.num_traces}, samples={self.num_samples}, "
            f"period_s={self._period_s})"
        )

    # ------------------------------------------------------------------
    # statistics & transforms
    # ------------------------------------------------------------------
    def references(self, spec: ReferenceSpec = PEAK) -> dict[str, float]:
        """Reference utilization of every member under ``spec``."""
        values = (
            self._matrix.max(axis=1)
            if spec.is_peak
            else np.percentile(self._matrix, spec.percentile, axis=1)
        )
        return dict(zip(self._names, (float(v) for v in values), strict=True))

    def aggregate(self, names: Sequence[str] | None = None) -> UtilizationTrace:
        """Sample-wise total demand of a subset (default: all members)."""
        if names is None:
            rows = self._matrix
            label = "aggregate"
        else:
            if len(names) == 0:
                raise ValueError("cannot aggregate an empty subset")
            rows = self._matrix[[self.index_of(n) for n in names]]
            label = "+".join(names)
        return UtilizationTrace(rows.sum(axis=0), self._period_s, label)

    def subset(self, names: Sequence[str]) -> TraceSet:
        """New TraceSet restricted to ``names`` (in the given order)."""
        return TraceSet([self[n] for n in names])

    def slice(self, start: int, stop: int) -> TraceSet:
        """New TraceSet covering sample indices ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_samples:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for {self.num_samples} samples"
            )
        # Contiguous copy, frozen before handing over so from_matrix does
        # not copy a second time.  (A strided view would also change the
        # bit-level reduction order of downstream kernels.)
        data = self._matrix[:, start:stop].copy()
        data.flags.writeable = False
        return TraceSet.from_matrix(data, self._names, self._period_s)

    def resampled(self, new_period_s: float) -> TraceSet:
        """Average-preserving resample of every member."""
        return TraceSet([trace.resampled(new_period_s) for trace in self])

    def total_reference(self, spec: ReferenceSpec = PEAK) -> float:
        """Sum of per-member references — the numerator of Eqn 3."""
        return float(sum(self.references(spec).values()))

    @classmethod
    def from_mapping(
        cls, samples_by_name: Mapping[str, Sequence[float] | np.ndarray], period_s: float
    ) -> TraceSet:
        """Build a TraceSet from a ``{name: samples}`` mapping."""
        return cls(
            UtilizationTrace(samples, period_s, name)
            for name, samples in samples_by_name.items()
        )

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, names: Sequence[str], period_s: float
    ) -> TraceSet:
        """Build a TraceSet directly from a ``(num_traces, samples)`` matrix.

        The fast internal constructor: skips the per-trace object round
        trip for data that is already a validated demand matrix — the
        replay engine slices windows out of an existing TraceSet every
        period, and the per-trace path dominated its profile.  A writeable
        (caller-owned) matrix is checked for finite, non-negative samples
        and then copied; a read-only one is trusted as a frozen internal
        slice and taken as is, unchecked.
        """
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {data.shape}")
        names = tuple(str(n) for n in names)
        if data.shape[0] != len(names):
            raise ValueError(f"{data.shape[0]} rows for {len(names)} names")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("trace names must be unique and non-empty")
        if data.shape[1] == 0:
            raise ValueError("a trace needs at least one sample")
        if period_s <= 0:
            raise ValueError(f"sampling period must be positive, got {period_s}")
        if data.flags.writeable:
            if not np.isfinite(data).all() or data.min() < 0.0:
                raise ValueError("trace samples must be finite and non-negative")
            data = data.copy()
            data.flags.writeable = False
        instance = cls.__new__(cls)
        instance._names = names
        instance._matrix = data
        instance._period_s = float(period_s)
        return instance
