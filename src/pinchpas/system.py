"""Physical scenario description and the per-antenna SNR law.

A transmission point is created at one of M fixed positions along a lossy
dielectric waveguide mounted at height h over a rectangular service area.
The positions are a uniform grid, so a layout (`PaLayout`) is m and the
spacing delta = d_x / m, and its x_k are an array derived from the two.
Exactly one position radiates per transmission; the access point activates
whichever one yields the highest received SNR for the current user.
The SNR law is big_c, the one factor that depends on the transmit SNR,
times a gain e^(-alpha x_k) / distance^2 written once, in `_gain`:
`snr_matrix` forms the (m, n) matrix of every antenna (behind the scalar
`select_pa`), and `_continuous_candidates` the freely placed radiator of
the continuous baseline. `best_snr` (behind the simulator) builds no such
matrix: `_best_gains` keeps a running maximum over candidate rows, which
up to ten antennas are every antenna, shared by the curves that differ
only in alpha, and beyond that three antennas gathered per user that
provably hold the best one, so its cost does not grow with the antenna
count (the proof is in `_best_gains`' docstring). Each multiplies by
big_c last; rounding is monotone, so the best SNR is big_c times the best
gain, bit for bit.

All computation is done in linear SI units. dB and dBm appear only in the
configuration fields and are converted once at construction time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .numerics import _is_whole, _read_only

__all__ = [
    "SPEED_OF_LIGHT",
    "SystemConfig",
    "PaLayout",
    "UserPosition",
    "db_to_linear",
    "make_layout",
    "snr_matrix",
    "best_snr",
    "select_pa",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# The dB values whose linear ratio 10^(v/10) neither overflows nor falls
# below the smallest normal float, 2.2e-308.
_DB_RANGE = (-3076.0, 3082.0)
# The positive normal floats.
_NORMAL_RANGE = (sys.float_info.min, sys.float_info.max)


def db_to_linear(value_db: float) -> float:
    """Power ratio in dB to linear scale."""
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Full physical scenario: room geometry, waveguide, and RF parameters.

    Defaults mirror the reference indoor scenario; only the room length
    d_x has no natural default and must always be given.

    Fields:
        d_x: room length along the waveguide, meters.
        d_y: room width, meters.
        h: waveguide height above the user plane, meters.
        alpha: waveguide attenuation coefficient, nepers/meter.
        f_c: carrier frequency, hertz.
        n_eff: effective refractive index of the waveguide.
        noise_dbm: noise power, dBm (recorded for reporting; the SNR
            budget enters through gamma_t_db directly).
        gamma_t_db: transmit SNR P_t/sigma^2 in dB.
        gamma_thr_db: SNR threshold for outage, dB.

    Attribute (not a field):
        big_c: the SNR scale eta * 10^(gamma_t_db/10), eta = wavelength^2 /
            (16 pi^2): the SNR 1 m from an unattenuated radiator.
    """

    d_x: float
    d_y: float = 10.0
    h: float = 3.0
    alpha: float = 0.05
    f_c: float = 28e9
    n_eff: float = 1.4
    noise_dbm: float = -90.0
    gamma_t_db: float = 100.0
    gamma_thr_db: float = 20.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        for name in ("gamma_t_db", "gamma_thr_db"):
            value = getattr(self, name)
            if not _DB_RANGE[0] <= value <= _DB_RANGE[1]:
                raise ValueError(
                    f"{name} must lie in [{_DB_RANGE[0]}, {_DB_RANGE[1]}] dB, "
                    f"where its linear ratio is a normal float, got {value!r}"
                )
        if not self.d_x > 0:
            raise ValueError(f"d_x must be > 0, got {self.d_x!r}")
        if not self.d_y > 0:
            raise ValueError(f"d_y must be > 0, got {self.d_y!r}")
        if not self.h >= 0:
            raise ValueError(f"h must be >= 0, got {self.h!r}")
        for name in ("d_x", "d_y", "h"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ValueError(f"{name}^2 must be finite, got {name} = {value!r}")
        # The largest squared distance from an antenna to a user.
        half_y = self.d_y / 2.0
        farthest_sq = self.d_x * self.d_x + half_y * half_y + self.h * self.h
        if not math.isfinite(farthest_sq):
            raise ValueError(
                "d_x^2 + (d_y/2)^2 + h^2 must be finite, got "
                f"d_x = {self.d_x!r}, d_y = {self.d_y!r}, h = {self.h!r}"
            )
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0 (range [0, inf)), got {self.alpha!r}")
        if not self.f_c > 0:
            raise ValueError(f"f_c must be > 0, got {self.f_c!r}")
        if not self.n_eff >= 1:
            raise ValueError(f"n_eff must be >= 1, got {self.n_eff!r}")
        # f_c sets the wavelength and eta; gamma_t_db only scales eta to big_c.
        wavelength = SPEED_OF_LIGHT / self.f_c
        eta = wavelength * wavelength / (16.0 * math.pi * math.pi)
        big_c = eta * db_to_linear(self.gamma_t_db)
        for field, name, value in (
            ("f_c", "wavelength", wavelength),
            ("f_c", "eta", eta),
            ("gamma_t_db", "big_c", big_c),
        ):
            if not _NORMAL_RANGE[0] <= value <= _NORMAL_RANGE[1]:
                raise ValueError(
                    f"{field} must leave {name} a positive normal float, "
                    f"got {name} = {value!r}"
                )
        # This sum bounds every sum the rate kernels and the baseline form,
        # such as c_0k + h^2 + width^2 and d^2 + big_c.
        if not math.isfinite(big_c + farthest_sq):
            raise ValueError(
                "big_c + d_x^2 + (d_y/2)^2 + h^2 must be finite, got "
                f"gamma_t_db = {self.gamma_t_db!r}, d_x = {self.d_x!r}, "
                f"d_y = {self.d_y!r}, h = {self.h!r}"
            )
        # Not a field: equality, hash, repr and the header echo stay the fields'.
        object.__setattr__(self, "big_c", big_c)


@dataclass(frozen=True)
class PaLayout:
    """Antenna grid along the waveguide: m points spaced delta apart.

    x_k is the read-only array of abscissae (2k-1)*delta/2 for k = 1..m,
    so the grid is centered within the room: the first point sits
    delta/2 from the feed.
    """

    m: int
    delta: float

    def __post_init__(self):
        if not (_is_whole(self.m) and self.m >= 1):
            raise ValueError(f"m must be a whole number >= 1, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta!r}")

    @cached_property
    def x_k(self) -> np.ndarray:
        # (2k - 1) is exact as a float, so each x_k is one rounding, as in Python.
        return _read_only((2 * np.arange(1, self.m + 1) - 1) * (self.delta / 2.0))


@dataclass(frozen=True)
class UserPosition:
    """User coordinates on the floor plane: x_m in [0, d_x], y_m in [-d_y/2, d_y/2]."""

    x_m: float
    y_m: float


def _unscaled(config: SystemConfig) -> tuple:
    """Every field but gamma_t_db: the key of a transmit-SNR curve.

    Transmit SNR only scales big_c, so configs with equal keys share every
    gain and differ only in the factor applied last.
    """
    return tuple(getattr(config, f.name) for f in fields(config) if f.name != "gamma_t_db")


def make_layout(config: SystemConfig, m: int) -> PaLayout:
    """Build the m-antenna grid for the given room length."""
    if m < 1:  # before d_x / m, which would divide by zero at m = 0
        raise ValueError(f"m must be a whole number >= 1, got {m!r}")
    return PaLayout(m=m, delta=config.d_x / m)


def _feedward_offset(alpha: float, dist_sq):
    """Feed-ward offset t1 of the SNR's stationary maximum along the waveguide.

    For a radiator at x - u the SNR e^(-alpha (x - u)) / (u^2 + d^2) peaks
    at u = t1 = alpha d^2 / (1 + sqrt(1 - alpha^2 d^2)). Takes a float or
    an array of d^2 = y^2 + h^2. Where 1 - alpha^2 d^2 <= 0 there is no
    interior stationary point and the offset is +inf, also where
    alpha^2 d^2 overflows.
    """
    with np.errstate(over="ignore"):
        disc = 1.0 - alpha * alpha * dist_sq
        return np.where(
            disc > 0.0,
            alpha * dist_sq / (1.0 + np.sqrt(np.maximum(disc, 0.0))),
            np.inf,
        )


def _gain(
    config: SystemConfig,
    positions: np.ndarray,
    attenuation: np.ndarray,
    x: np.ndarray,
    y_sq: np.ndarray,
) -> np.ndarray:
    """The SNR law over big_c, e^(-alpha x_k) / ((x - x_k)^2 + y^2 + h^2), in place.

    `attenuation` holds e^(-alpha x_k). `positions` and `attenuation` are
    either shape (m, 1), for every antenna, or one radiator per user, shape
    (n,) or scalar; each entry takes the same operations in the same order
    either way, and so does each row of `_best_gains`.
    """
    denom = _dist_sq(config.h, positions, x, y_sq)
    return np.divide(attenuation, denom, out=denom)


def _dist_sq(
    h: float, positions, x: np.ndarray, y_sq: np.ndarray, out=None
) -> np.ndarray:
    """`_gain`'s denominator (x - x_k)^2 + y^2 + h^2, into `out` if given."""
    dist_sq = np.subtract(x, positions, out=out)
    dist_sq *= dist_sq
    dist_sq += y_sq
    dist_sq += h * h
    return dist_sq


def snr_matrix(
    config: SystemConfig, layout: PaLayout, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Received SNR (linear) of every antenna for every user, shape (m, n).

    The waveguide attenuates the feed signal by exp(-alpha * x_k) before
    antenna k radiates it, and free-space loss applies over the slant
    distance from x_k to the user at (x, y).

    Args:
        config: scenario.
        layout: antenna grid.
        x: user abscissae, shape (n,).
        y: user cross offsets, shape (n,).

    Returns:
        Strictly positive linear SNRs; row k - 1 belongs to antenna k.
    """
    positions = layout.x_k[:, None]
    gain = _gain(config, positions, np.exp(-config.alpha * positions), x, y**2)
    return config.big_c * gain


def _continuous_candidates(
    config: SystemConfig, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a freely placed radiator best serves users at (x, y), and its SNRs.

    Along the waveguide the SNR peaks once inside, at x - t1
    (`_feedward_offset`), and may rise again towards the feed end. Returns
    p* = clip(x - t1, 0, d_x), the SNR from p*, and the SNR from p = 0.
    """
    y_sq = y**2
    offset = _feedward_offset(config.alpha, y_sq + config.h * config.h)
    placement = np.clip(x - offset, 0.0, config.d_x)
    station = _gain(config, placement, np.exp(-config.alpha * placement), x, y_sq)
    feed = _gain(config, 0.0, 1.0, x, y_sq)
    return placement, config.big_c * station, config.big_c * feed


def _continuous_snr(config: SystemConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SNR (linear) of a radiator placed optimally for each user."""
    _, station, feed = _continuous_candidates(config, x, y)
    return np.maximum(station, feed, out=station)


def _station_log_ratio(alpha: float, x, t1, dist_sq):
    """ln of p* = x - t1's SNR over the feed end's, for a user at x on row d^2.

    f(x) = ln(x^2 + d^2) - ln(t1^2 + d^2) - alpha (x - t1), for x >= t1.
    """
    return np.log(x * x + dist_sq) - np.log(t1 * t1 + dist_sq) - alpha * (x - t1)


def _continuous_kinks(
    config: SystemConfig, dist_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kinks of the continuous SNR along each row of d^2 = y^2 + h^2.

    Returns t1, where p* leaves the feed end, and where the feed end wins
    again, both clipped to d_x. On [t1, d_x] the log-ratio of p*'s SNR to
    the feed end's (`_station_log_ratio`) rises from 0 to a peak at
    t2 = (1 + sqrt(1 - alpha^2 d^2)) / alpha and is concave and decreasing
    beyond: a row with f(d_x) < 0 has one root in (t2, d_x), found by
    bisection.
    """
    alpha, d_x = config.alpha, config.d_x
    offset = _feedward_offset(alpha, dist_sq)
    takeover = np.full(dist_sq.shape, d_x)
    rows = np.flatnonzero(offset < d_x)
    d_sq, t1 = dist_sq[rows], offset[rows]

    def log_ratio(x):
        return _station_log_ratio(alpha, x, t1, d_sq)

    falls = log_ratio(d_x) < 0.0
    if falls.any():
        peak = (1.0 + np.sqrt(1.0 - alpha * alpha * d_sq)) / alpha
        lo = np.where(falls, np.minimum(peak, d_x), d_x)  # lo = hi = d_x: no root
        hi = np.full(rows.size, d_x)
        mid = 0.5 * (lo + hi)
        # Once lo and hi are adjacent floats, mid is one of them and a step
        # changes neither: hi is then the first float where the ratio falls.
        while ((lo < mid) & (mid < hi)).any():
            ahead = log_ratio(mid) >= 0.0
            lo = np.where(ahead, mid, lo)
            hi = np.where(ahead, hi, mid)
            mid = 0.5 * (lo + hi)
        takeover[rows] = hi
    return np.minimum(offset, d_x), takeover


def _first_at_or_beyond(layout: PaLayout, v: np.ndarray) -> np.ndarray:
    """Index (0-based) of the first antenna at or beyond each v.

    Where no antenna is, the last one's. The grid formula
    x_k = (k - 1/2) delta, lowered by a margin far above its rounding
    error, gives that index or the one before it, and one comparison with
    x_k settles which.
    """
    index = np.ceil(v / layout.delta - (0.5 + 1e-6))
    np.clip(index, 0, layout.m - 1, out=index)
    index = index.astype(np.intp)
    index += (index < layout.m - 1) & (layout.x_k[index] < v)
    return index


# Up to this many antennas a user's best gain runs over every antenna's
# row; beyond it three rows gathered per user are cheaper. A row costs
# about six passes over the users, finding and gathering the three about
# as much as nine or ten rows. In fresh processes on a 2-vCPU x86-64 host
# (numpy 2.4), 3e6 users in blocks of 8,192 took 0.07-0.12 s through the
# gathered rows at any m (the host's speed drifts between processes). As
# a share of that time in the same process, every antenna's rows took
# 0.12 / 0.5 / 0.8 at m = 1 / 5 / 8, 0.94-1.11 at m = 10, 1.13-1.27 at
# m = 11-12 and about 2 at m = 20. Curves that share the rows (an alpha
# axis) each pay only two of the six passes: three of them took
# 0.34-0.40 of the gathered rows' time at m = 10 and 0.9-1.0 at m = 16.
_ROW_MAX_M = 10


def best_snr(
    config: SystemConfig, layout: PaLayout, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Each user's best-antenna SNR (linear), shape (n,).

    Returns `snr_matrix(...).max(axis=0)` bit for bit, but for the one-ulp
    tie `_best_gains` states: big_c times the best e^(-alpha x_k) /
    distance^2 from `_best_gains`, which builds no (m, n) matrix. Rounding
    is monotone, so max_k fl(big_c g_k) = fl(big_c max_k g_k).
    """
    (best,) = _best_gains([config], layout, x, y)
    return config.big_c * best


def _best_gains(
    configs: list[SystemConfig], layout: PaLayout, x: np.ndarray, y: np.ndarray
):
    """Yield each config's best gain per user, shape (n,); the configs share h.

    One running maximum over candidate rows, through (n,) buffers: each
    row's (x - x_k)^2 + y^2 + h^2 is formed once for all the configs that
    share it, each config divides it by its own e^(-alpha x_k), and the
    maximum keeps each config's best. Every value takes `_gain`'s
    operations in the same order and the maximum is exact.

    Up to `_ROW_MAX_M` antennas the rows are every antenna, shared by all
    configs, and the result is the matrix maximum bit for bit. Beyond it
    each config, only when asked for, takes three rows gathered per user:
    antenna 1 and the two antennas that bracket x - t1. These hold the
    best antenna. Antenna k's gain at (x, y) is e^(-alpha t) / ((x - t)^2
    + r^2) with t = x_k and r^2 = y^2 + h^2. Put u = x - t:

    - d/du log gain = alpha - 2u / (u^2 + r^2), which is >= 0 for u <= 0.
    - If alpha^2 r^2 >= 1 it is never negative, so antenna 1 (largest u)
      wins; t1 = inf there and the bracket is antenna 1 too.
    - Otherwise the gain rises in u up to u = t1 (`_feedward_offset`),
      falls to a second root, then rises again.
    - So for t >= x - t1 it never rises with t, and the first antenna at
      or beyond x - t1 wins there; for t < x - t1 the last antenna before
      x - t1 wins, or antenna 1 if the final rise reaches past it.

    The one exception to bit for bit needs antenna spacings below about
    1e-6 of r, such as micrometre spacings in a centimetre room: there two
    antennas can tie to within rounding, and the gathered rows may keep
    the one that rounds one ulp lower.
    """
    h = configs[0].h
    positions = layout.x_k
    y_sq = y**2
    shared = layout.m <= _ROW_MAX_M
    for group in [configs] if shared else [[config] for config in configs]:
        attenuations = [np.exp(-config.alpha * positions) for config in group]
        if shared:
            rows = range(1, layout.m)
        else:
            peak = x - _feedward_offset(group[0].alpha, y_sq + h * h)
            above_peak = _first_at_or_beyond(layout, peak)
            rows = (np.maximum(above_peak - 1, 0), above_peak)
        row = _dist_sq(h, positions[0], x, y_sq)
        best = [np.divide(attenuation[0], row) for attenuation in attenuations]
        gain = np.empty_like(row)
        for k in rows:
            _dist_sq(h, positions[k], x, y_sq, out=row)
            for top, attenuation in zip(best, attenuations):
                np.maximum(top, np.divide(attenuation[k], row, out=gain), out=top)
        yield from best


def select_pa(config: SystemConfig, layout: PaLayout, user: UserPosition) -> int:
    """Index (1-based) of the antenna with the highest SNR for this user.

    Ties go to the smaller index so region maps are reproducible.
    """
    snr = snr_matrix(config, layout, np.array([user.x_m]), np.array([user.y_m]))
    return 1 + int(np.argmax(snr[:, 0]))
