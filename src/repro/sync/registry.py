"""Parse/format the paper's algorithm labels.

The paper identifies configurations with strings like::

    hca/1000/skampi offset/100
    hca2/recompute intercept/1000/skampi offset/100
    hca3/recompute_intercept/1000/SKaMPI-Offset/100
    jk/1000/skampi offset/20
    Top/hca3/500/SKaMPI-Offset/100/Bottom/ClockPropagation

:func:`algorithm_from_label` turns such a string into a configured
algorithm instance; ``algorithm.label()`` is the inverse (canonical
form).
Matching is case-insensitive; spaces and dashes normalize to underscores.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sync.base import ClockSyncAlgorithm
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.hca import HCA2Sync, HCASync
from repro.sync.hca3 import HCA3Sync
from repro.sync.hierarchical import HierarchicalSync
from repro.sync.jk import JKSync
from repro.sync.offset import MeanRTTOffset, OffsetAlgorithm, SKaMPIOffset

_SYNC_CLASSES = {
    "jk": JKSync,
    "hca": HCASync,
    "hca2": HCA2Sync,
    "hca3": HCA3Sync,
}

_OFFSET_ALIASES = {
    "skampi_offset": SKaMPIOffset,
    "skampioffset": SKaMPIOffset,
    "mean_rtt_offset": MeanRTTOffset,
    "meanrttoffset": MeanRTTOffset,
    "mean_rtt": MeanRTTOffset,
}

_CLOCKPROP_ALIASES = {"clockpropagation", "clockprop", "clockpropsync"}


def _norm(token: str) -> str:
    return token.strip().lower().replace(" ", "_").replace("-", "_")


def _parse_offset(name: str, nexchanges: int) -> OffsetAlgorithm:
    key = _norm(name)
    try:
        cls = _OFFSET_ALIASES[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown offset algorithm {name!r}; "
            f"known: {sorted(set(_OFFSET_ALIASES))}"
        ) from None
    return cls(nexchanges=nexchanges)


def _parse_flat(
    tokens: list[str], fitpoint_spacing: float
) -> ClockSyncAlgorithm:
    if not tokens:
        raise ConfigurationError("empty algorithm label")
    head = _norm(tokens[0])
    if head in _CLOCKPROP_ALIASES:
        if len(tokens) != 1:
            raise ConfigurationError(
                "ClockPropagation takes no parameters in a label"
            )
        return ClockPropagationSync()
    try:
        cls = _SYNC_CLASSES[head]
    except KeyError:
        raise ConfigurationError(
            f"unknown sync algorithm {tokens[0]!r}; "
            f"known: {sorted(_SYNC_CLASSES)} + clockpropagation"
        ) from None
    rest = tokens[1:]
    recompute = False
    if rest and _norm(rest[0]) == "recompute_intercept":
        recompute = True
        rest = rest[1:]
    if len(rest) != 3:
        raise ConfigurationError(
            f"expected <nfitpoints>/<offset alg>/<nexchanges> after "
            f"{tokens[0]!r}, got {rest!r}"
        )
    try:
        nfitpoints = int(rest[0])
        nexchanges = int(rest[2])
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric field in label: {exc}") from None
    return cls(
        offset_alg=_parse_offset(rest[1], nexchanges),
        nfitpoints=nfitpoints,
        recompute_intercept=recompute,
        fitpoint_spacing=fitpoint_spacing,
    )


def algorithm_from_label(
    label: str, fitpoint_spacing: float = 0.0
) -> ClockSyncAlgorithm:
    """Instantiate the algorithm a paper-style label describes.

    ``fitpoint_spacing`` is a simulation-scaling knob applied to every
    model-learning level (see :mod:`repro.sync.learn`).
    """
    tokens = [t for t in label.split("/") if t.strip()]
    lowered = [_norm(t) for t in tokens]
    if "top" in lowered:
        # Hierarchical: Top/<flat...>/[Mid/<flat...>/]Bottom/<flat...>
        sections: dict[str, list[str]] = {}
        current: str | None = None
        for raw, norm in zip(tokens, lowered):
            if norm in ("top", "mid", "bottom"):
                current = norm
                sections[current] = []
            elif current is None:
                raise ConfigurationError(
                    f"hierarchical label must start with Top/: {label!r}"
                )
            else:
                sections[current].append(raw)
        if "top" not in sections or "bottom" not in sections:
            raise ConfigurationError(
                f"hierarchical label needs Top and Bottom sections: {label!r}"
            )
        inter_node = _parse_flat(sections["top"], fitpoint_spacing)
        intra_node = _parse_flat(sections["bottom"], fitpoint_spacing)
        inter_socket = (
            _parse_flat(sections["mid"], fitpoint_spacing)
            if "mid" in sections
            else None
        )
        return HierarchicalSync(
            inter_node=inter_node,
            intra_node=intra_node,
            inter_socket=inter_socket,
        )
    return _parse_flat(tokens, fitpoint_spacing)

