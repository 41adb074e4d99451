"""Reverse-reachable set machinery (Borgs et al.; Tang et al. TIM)."""

from repro.rrset.sampler import RRSampler, resolve_kernel, sample_batch_flat_kernel
from repro.rrset.backend import (
    ParallelBackend,
    SamplerBackend,
    SerialBackend,
    SharedGraphPool,
    make_backend,
)
from repro.rrset.collection import (
    RRCollection,
    SharedRRCollection,
    SharedRRStore,
    estimate_spread_flat,
    estimate_spread_from_sets,
    member_dtype_for,
)
from repro.rrset.tim import (
    log_binomial,
    sample_size,
    KPTEstimator,
)

__all__ = [
    "RRSampler",
    "sample_batch_flat_kernel",
    "resolve_kernel",
    "SamplerBackend",
    "SerialBackend",
    "ParallelBackend",
    "SharedGraphPool",
    "make_backend",
    "RRCollection",
    "SharedRRCollection",
    "SharedRRStore",
    "estimate_spread_flat",
    "estimate_spread_from_sets",
    "member_dtype_for",
    "log_binomial",
    "sample_size",
    "KPTEstimator",
]
