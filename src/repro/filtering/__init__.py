"""Filtering methods: candidate vertex set generation (paper Section 3.1).

The study's first axis. Every filter implements
:class:`~repro.filtering.base.Filter` and returns *complete*
:class:`~repro.filtering.candidates.CandidateSets`; the
:class:`~repro.filtering.auxiliary.AuxiliaryStructure` then holds
candidate-to-candidate adjacency for whichever query edges an algorithm's
ComputeLC needs.
"""

from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.base import (
    Filter,
    LDFFilter,
    NLFFilter,
    ldf_candidates_for,
    ldf_check,
    nlf_check,
)
from repro.filtering.candidates import CandidateSets
from repro.filtering.ceci import CECIFilter
from repro.filtering.cfl import CFLFilter
from repro.filtering.dpiso import DPisoFilter
from repro.filtering.graphql import GraphQLFilter
from repro.filtering.roots import ceci_root, cfl_root, dpiso_root
from repro.filtering.steady import SteadyFilter

__all__ = [
    "AuxiliaryStructure",
    "CandidateSets",
    "Filter",
    "LDFFilter",
    "NLFFilter",
    "GraphQLFilter",
    "CFLFilter",
    "CECIFilter",
    "DPisoFilter",
    "SteadyFilter",
    "ldf_candidates_for",
    "ldf_check",
    "nlf_check",
    "cfl_root",
    "ceci_root",
    "dpiso_root",
]
