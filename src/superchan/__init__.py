"""Numerical toolkit for quantum channels, superchannels and recovery maps."""

from .bounds import VerificationRecord, record_to_json
from .channels import Channel, channel_from_choi, channel_from_kraus, is_cptp
from .divergences import (
    OptimizerOpts,
    channel_divergence,
    channel_entropy,
    rel_entropy,
    vn_entropy,
)
from .recovery import petz, universal_recovery
from .superchannels import Superchannel, apply_super, super_from_rep

__version__ = "0.1.0"
