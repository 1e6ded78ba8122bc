"""Behavioral security simulator for spin-based computing-in-memory arrays.

Models an STT-MRAM array with in-memory logic senses, per-operation timing
and energy, thermal fault injection, side-channel classification, and
reference-adaptation mitigation, all reproducible from (config, seed).
"""

__version__ = "0.1.0"
