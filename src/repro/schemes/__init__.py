"""LLC management schemes: the locality-aware protocol and all baselines."""

from repro.schemes.asr import ASRScheme
from repro.schemes.base import LocalHit, ProtocolEngine, ProtocolObserver
from repro.schemes.factory import FIGURE_SCHEMES, make_scheme, scheme_builder
from repro.schemes.locality import LocalityAwareScheme
from repro.schemes.rnuca import RNucaScheme
from repro.schemes.snuca import SNucaScheme
from repro.schemes.victim import VictimReplicationScheme

__all__ = [
    "ASRScheme",
    "FIGURE_SCHEMES",
    "LocalHit",
    "LocalityAwareScheme",
    "ProtocolEngine",
    "ProtocolObserver",
    "RNucaScheme",
    "SNucaScheme",
    "VictimReplicationScheme",
    "make_scheme",
    "scheme_builder",
]
