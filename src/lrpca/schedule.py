"""Iteration-parameter schedules.

A :class:`ParamSchedule` stores per-iteration thresholds ``zeta_0 .. zeta_K``
and step sizes ``eta_1 .. eta_K`` learned for the first K iterations, plus a
geometric tail (``beta`` for step sizes, ``phi`` for thresholds) that extends
the schedule to arbitrarily many iterations:

    k <= K:  (zeta_k, eta_k) as stored
    k >  K:  (phi**(k-K) * zeta_K, beta**(k-K) * eta_K)

A schedule is checked once, when built: thresholds must be >= 0, step sizes
and tail factors finite and > 0, or it raises
:class:`~lrpca.errors.InvalidInput`.
"""

import io
import math
from dataclasses import dataclass

from .errors import InvalidInput, ParseError

__all__ = ["ParamSchedule", "rescale_schedule", "write_schedule",
           "read_schedule"]


@dataclass(frozen=True)
class ParamSchedule:
    """Learned thresholds/step sizes plus the geometric tail parameters."""

    zetas: tuple  # length K+1, zeta_0 .. zeta_K
    etas: tuple   # length K,   eta_1 .. eta_K
    beta: float = 1.0
    phi: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zetas", tuple(float(z) for z in self.zetas))
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        if len(self.zetas) != len(self.etas) + 1:
            raise InvalidInput("need len(zetas) == len(etas) + 1")
        if not all(z >= 0 for z in self.zetas):
            raise InvalidInput(f"thresholds must be >= 0, got {self.zetas}")
        if not all(map(_positive, self.etas)):
            raise InvalidInput(f"step sizes must be finite and > 0, got {self.etas}")
        if not (_positive(self.beta) and _positive(self.phi)):
            raise InvalidInput(f"need 0 < beta, phi < inf, got {self.beta}, {self.phi}")

    @property
    def K(self):
        return len(self.etas)

    @property
    def zeta0(self):
        return self.zetas[0]

    def at(self, k):
        """(zeta_k, eta_k) for iteration ``k >= 1``: stored, then geometric."""
        k = int(k)
        if k < 1:
            raise InvalidInput("iteration index must be >= 1; zeta_0 is zeta0")
        K = self.K
        if k <= K:
            return self.zetas[k], self.etas[k - 1]
        if K == 0:
            raise InvalidInput("schedule with K=0 has no tail anchor")
        step = k - K
        return self.phi ** step * self.zetas[K], self.beta ** step * self.etas[K - 1]

    def replace(self, **kw):
        d = dict(zetas=self.zetas, etas=self.etas, beta=self.beta, phi=self.phi)
        d.update(kw)
        return ParamSchedule(**d)


def _positive(v):
    return 0 < v < math.inf


def rescale_schedule(theta, n_base, r_base, n_target, r_target):
    """Adapt thresholds to a new problem size.

    Every ``zeta`` is multiplied by ``(n_base / n_target) * (r_target /
    r_base)``; step sizes and the tail factors transfer unchanged.
    """
    if min(n_base, r_base, n_target, r_target) <= 0:
        raise InvalidInput("sizes and ranks must be positive")
    factor = (n_base / n_target) * (r_target / r_base)
    return theta.replace(zetas=tuple(z * factor for z in theta.zetas))


_HEADER = "kind,k,value"


def _export_schedule(theta):
    """Schedule as ``(kind, k, value)`` records: each zeta (k = 0..K), each
    eta (k = 1..K), then beta and phi."""
    records = [("zeta", k, z) for k, z in enumerate(theta.zetas)]
    records += [("eta", k + 1, e) for k, e in enumerate(theta.etas)]
    records.append(("beta", 0, theta.beta))
    records.append(("phi", 0, theta.phi))
    return records


def _import_schedule(records):
    """Rebuild a :class:`ParamSchedule` from ``(kind, k, value)`` records."""
    records = list(records)
    if not records:
        raise ParseError("empty schedule record set")
    zetas, etas, tail = {}, {}, {}
    for rec in records:
        try:
            kind, k, value = rec
            kind = str(kind)
            k = int(k)
            value = float(value)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed schedule record {rec!r}") from exc
        table = {"zeta": zetas, "eta": etas, "beta": tail, "phi": tail}.get(kind)
        if table is None:
            raise ParseError(f"unknown schedule kind {kind!r}")
        key = kind if table is tail else k
        if key in table:
            raise ParseError(f"repeated schedule row {kind!r} at k = {k}")
        table[key] = value
    if not zetas or sorted(zetas) != list(range(len(zetas))):
        raise ParseError("zeta rows must cover k = 0..K exactly once")
    if sorted(etas) != list(range(1, len(zetas))):
        raise ParseError("eta rows must cover k = 1..K exactly once")
    try:
        return ParamSchedule(
            zetas=tuple(zetas[k] for k in range(len(zetas))),
            etas=tuple(etas[k] for k in range(1, len(zetas))),
            beta=tail.get("beta", 1.0),
            phi=tail.get("phi", 1.0),
        )
    except InvalidInput as exc:
        raise ParseError(str(exc)) from exc


def _format_value(v):
    # 17 significant digits round-trips any float64 exactly.
    return f"{v:.17g}"


def write_schedule(theta, path):
    """Write the schedule CSV (``kind,k,value`` header, LF line endings)."""
    buf = io.StringIO()
    buf.write(_HEADER + "\n")
    for kind, k, value in _export_schedule(theta):
        buf.write(f"{kind},{k},{_format_value(value)}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_schedule(path):
    """Read a schedule CSV produced by :func:`write_schedule`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty schedule file")
    if lines[0] != _HEADER:
        raise ParseError(f"{path}: expected header {_HEADER!r}, got {lines[0]!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: malformed line {ln!r}")
        records.append((parts[0], parts[1], parts[2]))
    return _import_schedule(records)
