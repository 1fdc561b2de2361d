"""Extreme-adaptive multi-step time series forecasting.

Three specialized LSTM forecasters (a normal-value regressor, an
extreme-value regressor, and a per-step classifier that gates between
them), fed by a standardized-difference transform and a Gaussian-mixture
density indicator.
"""
