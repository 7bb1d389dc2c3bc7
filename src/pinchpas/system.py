"""Physical scenario description and the per-antenna SNR law.

A transmission point is created at one of M fixed positions along a lossy
dielectric waveguide mounted at height h over a rectangular service area.
Exactly one position radiates per transmission; the access point activates
whichever one yields the highest received SNR for the current user.
`snr_matrix` holds the one SNR law; the simulator and the scalar
`snr_linear`/`select_pa` all evaluate it.

All computation is done in linear SI units. dB and dBm appear only in the
configuration fields and are converted once at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "SystemConfig",
    "DerivedRf",
    "PaLayout",
    "UserPosition",
    "db_to_linear",
    "linear_to_db",
    "derive_rf",
    "make_layout",
    "snr_matrix",
    "snr_linear",
    "select_pa",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def db_to_linear(value_db: float) -> float:
    """Power ratio in dB to linear scale."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio to dB."""
    return 10.0 * math.log10(value)


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
        if not self.d_x > 0:
            raise ValueError(f"d_x must be > 0, got {self.d_x!r}")
        if not self.d_y > 0:
            raise ValueError(f"d_y must be > 0, got {self.d_y!r}")
        if not self.h >= 0:
            raise ValueError(f"h must be >= 0, got {self.h!r}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0 (range [0, inf)), got {self.alpha!r}")
        if not self.f_c > 0:
            raise ValueError(f"f_c must be > 0, got {self.f_c!r}")
        if not self.n_eff >= 1:
            raise ValueError(f"n_eff must be >= 1, got {self.n_eff!r}")


@dataclass(frozen=True)
class DerivedRf:
    """Quantities derived from the RF configuration.

    wavelength: free-space wavelength, meters.
    wavelength_g: guided wavelength (wavelength / n_eff), meters.
    eta: free-space path gain at 1 m reference distance, dimensionless.
    big_c: eta times the linear transmit SNR; the SNR a user would see at
        1 m slant distance from an unattenuated radiator.
    """

    wavelength: float
    wavelength_g: float
    eta: float
    big_c: float

    def __post_init__(self):
        if not (self.eta > 0 and self.big_c > 0):
            raise ValueError("eta and big_c must be positive")


@dataclass(frozen=True)
class PaLayout:
    """Antenna grid along the waveguide: m points spaced delta apart.

    x_k holds the abscissae (2k-1)*delta/2 for k = 1..m, so the grid is
    centered within the room: the first point sits delta/2 from the feed.
    """

    m: int
    delta: float
    x_k: tuple[float, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m!r}")
        if len(self.x_k) != self.m:
            raise ValueError("x_k length must equal m")
        if any(b <= a for a, b in zip(self.x_k, self.x_k[1:])):
            raise ValueError("x_k must be strictly increasing")
        if self.x_k[0] <= 0:
            raise ValueError("first antenna position must be > 0")


@dataclass(frozen=True)
class UserPosition:
    """User coordinates on the floor plane: x_m in [0, d_x], y_m in [-d_y/2, d_y/2]."""

    x_m: float
    y_m: float


def derive_rf(config: SystemConfig) -> DerivedRf:
    """Compute wavelength, reference path gain, and the linear SNR scale."""
    wavelength = SPEED_OF_LIGHT / config.f_c
    eta = wavelength * wavelength / (16.0 * math.pi * math.pi)
    return DerivedRf(
        wavelength=wavelength,
        wavelength_g=wavelength / config.n_eff,
        eta=eta,
        big_c=eta * db_to_linear(config.gamma_t_db),
    )


def make_layout(config: SystemConfig, m: int) -> PaLayout:
    """Build the m-antenna grid for the given room length."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    delta = config.d_x / m
    half = delta / 2.0
    x_k = tuple((2 * k - 1) * half for k in range(1, m + 1))
    return PaLayout(m=m, delta=delta, x_k=x_k)


def snr_matrix(
    config: SystemConfig, layout: PaLayout, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Received SNR (linear) of every antenna for every user, shape (m, n).

    This is the package's one SNR law: the waveguide attenuates the feed
    signal by exp(-alpha * x_k) before antenna k radiates it, and free-space
    loss applies over the slant distance from x_k to the user at (x, y).

    Args:
        config: scenario.
        layout: antenna grid.
        x: user abscissae, shape (n,).
        y: user cross offsets, shape (n,).

    Returns:
        Strictly positive linear SNRs; row k - 1 belongs to antenna k.
    """
    rf = derive_rf(config)
    positions = np.asarray(layout.x_k)[:, None]
    scale = rf.big_c * np.exp(-config.alpha * positions)
    gap = x[None, :] - positions
    return scale / (gap * gap + y[None, :] ** 2 + config.h * config.h)


def snr_linear(
    config: SystemConfig, layout: PaLayout, k: int, user: UserPosition
) -> float:
    """Received SNR (linear) when antenna k (1-based) serves the given user."""
    if not 1 <= k <= layout.m:
        raise IndexError(f"antenna index k={k} outside 1..{layout.m}")
    snr = snr_matrix(config, layout, np.array([user.x_m]), np.array([user.y_m]))
    return float(snr[k - 1, 0])


def select_pa(config: SystemConfig, layout: PaLayout, user: UserPosition) -> int:
    """Index (1-based) of the antenna with the highest SNR for this user.

    Ties go to the smaller index so region maps are reproducible.
    """
    snr = snr_matrix(config, layout, np.array([user.x_m]), np.array([user.y_m]))
    return 1 + int(np.argmax(snr[:, 0]))
