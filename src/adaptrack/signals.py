"""Bounded reference-input generators (sum of sinusoids plus a step bias)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Sinusoid:
    amp: float
    freq: float  # rad/sample (DT) or rad/s (CT)
    phase: float = 0.0


@dataclass
class Channel:
    sinusoids: list = field(default_factory=list)
    bias: float = 0.0

    def value(self, t):
        """The channel at t; an array of times gives an array of that shape."""
        v = np.full(np.shape(t), self.bias)
        for s in self.sinusoids:
            v += s.amp * np.sin(s.freq * t + s.phase)
        return v


@dataclass
class RefInput:
    """Vector-valued input signal; one Channel per input component."""

    channels: list

    def __call__(self, t):
        return np.array([ch.value(t) for ch in self.channels])

    @property
    def width(self):
        return len(self.channels)


def multisine(m, amps=(1.0, 0.9, 0.8, 0.7, 0.6), freqs=(0.13, 0.41, 0.79, 1.39, 2.11),
              bias=0.3, phase_step=0.9):
    """A default persistently exciting input with per-channel phase offsets."""
    chans = []
    for ch in range(m):
        sins = [
            Sinusoid(a, f * (1.0 + 0.17 * ch), phase_step * (ch + i))
            for i, (a, f) in enumerate(zip(amps, freqs))
        ]
        chans.append(Channel(sins, bias))
    return RefInput(chans)
