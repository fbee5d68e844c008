"""Iteration-parameter schedules.

A :class:`ParamSchedule` stores per-iteration thresholds ``zeta_0 .. zeta_K``
and step sizes ``eta_1 .. eta_K`` learned for the first K iterations, plus a
geometric tail (``beta`` for step sizes, ``phi`` for thresholds) that extends
the schedule to arbitrarily many iterations:

    k <= K:  (zeta_k, eta_k) as stored
    k >  K:  (phi**(k-K) * zeta_K, beta**(k-K) * eta_K)

A schedule is checked once, when built: thresholds must be reals >= 0, step
sizes and tail factors finite reals > 0, or it raises
:class:`~lrpca.errors.InvalidInput`; a string or a ``bool`` is rejected,
not converted.
"""

from dataclasses import dataclass, replace

from .errors import FormatError, InvalidInput
from .validation import (check_count, check_nonneg, check_positive,
                         check_values)

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
        object.__setattr__(self, "zetas", tuple(
            check_nonneg(z, "thresholds")
            for z in check_values(self.zetas, "zetas")))
        object.__setattr__(self, "etas", tuple(
            check_positive(e, "step sizes")
            for e in check_values(self.etas, "etas")))
        if len(self.zetas) != len(self.etas) + 1:
            raise InvalidInput("need len(zetas) == len(etas) + 1")
        check_positive(self.beta, "beta")
        check_positive(self.phi, "phi")

    @property
    def K(self):
        return len(self.etas)

    @property
    def zeta0(self):
        return self.zetas[0]

    def at(self, k):
        """(zeta_k, eta_k) for iteration ``k >= 1``: stored, then geometric."""
        k = check_count(k, "iteration index", 1)  # zeta_0 is zeta0
        K = self.K
        if k <= K:
            return self.zetas[k], self.etas[k - 1]
        if K == 0:
            raise InvalidInput("schedule with K=0 has no tail anchor")
        step = k - K
        return self.phi ** step * self.zetas[K], self.beta ** step * self.etas[K - 1]


def rescale_schedule(theta, n_base, r_base, n_target, r_target):
    """Adapt thresholds to a new problem size.

    Every ``zeta`` is multiplied by ``(n_base / n_target) * (r_target /
    r_base)``; step sizes and the tail factors transfer unchanged.
    """
    for v, name in ((n_base, "n_base"), (r_base, "r_base"),
                    (n_target, "n_target"), (r_target, "r_target")):
        check_count(v, name)
    factor = (n_base / n_target) * (r_target / r_base)
    return replace(theta, zetas=tuple(z * factor for z in theta.zetas))


_HEADER = "kind,k,value"


def write_schedule(theta, path):
    """Write the schedule CSV (``kind,k,value`` header, LF line endings):
    each zeta (k = 0..K), each eta (k = 1..K), then beta and phi, every
    value with 17 significant digits, which round-trips any float64."""
    rows = [("zeta", k, z) for k, z in enumerate(theta.zetas)]
    rows += [("eta", k, e) for k, e in enumerate(theta.etas, 1)]
    rows += [("beta", 0, theta.beta), ("phi", 0, theta.phi)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(f"{kind},{k},{v:.17g}\n" for kind, k, v in rows)


def read_schedule(path):
    """Read a schedule CSV produced by :func:`write_schedule`.

    Raises :class:`~lrpca.errors.FormatError` on a file that is not UTF-8
    text, an empty file, a bad header, a malformed line, an unknown kind, a
    repeated row, zeta rows that miss some k = 0..K or eta rows some
    k = 1..K, and values the schedule rejects.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [ln.strip() for ln in fh if ln.strip()]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise FormatError(f"{path}: empty schedule file")
    if lines[0] != _HEADER:
        raise FormatError(f"{path}: expected header {_HEADER!r}, got {lines[0]!r}")
    zetas, etas, tail = {}, {}, {}
    for ln in lines[1:]:
        try:
            kind, k, value = ln.split(",")
            k, value = int(k), float(value)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed line {ln!r}") from exc
        table = {"zeta": zetas, "eta": etas, "beta": tail, "phi": tail}.get(kind)
        if table is None:
            raise FormatError(f"{path}: unknown schedule kind {kind!r}")
        key = kind if table is tail else k
        if key in table:
            raise FormatError(f"{path}: repeated schedule row {kind!r} at k = {k}")
        table[key] = value
    if not zetas or sorted(zetas) != list(range(len(zetas))):
        raise FormatError(f"{path}: zeta rows must cover k = 0..K exactly once")
    if sorted(etas) != list(range(1, len(zetas))):
        raise FormatError(f"{path}: eta rows must cover k = 1..K exactly once")
    try:
        return ParamSchedule(zetas=tuple(zetas[k] for k in sorted(zetas)),
                             etas=tuple(etas[k] for k in sorted(etas)),
                             beta=tail.get("beta", 1.0), phi=tail.get("phi", 1.0))
    except InvalidInput as exc:
        raise FormatError(f"{path}: {exc}") from exc
