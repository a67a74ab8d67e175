"""Event-frame denoising with a non-overlapping median filter, a behavioral
model of an SRAM array that filters in place, analytic cost models, and a
region-proposal/tracking evaluation pipeline."""

__version__ = "0.1.0"
