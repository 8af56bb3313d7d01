"""The one non-default pricing model the suite activates.

:class:`ScaledRoofline` prices every kernel and every transfer at ``factor``
times the roofline's price.  ``to_dict`` records the factor, so each factor
has its own signature and program-cache token.
"""

from __future__ import annotations

from repro.costmodel import RooflineCostModel

#: Bandwidth (bytes/s) a channel-named transfer is priced at; link-resolved
#: transfers use their link's own bandwidth and latency.
CHANNEL_BANDWIDTH = 10e9


class ScaledRoofline(RooflineCostModel):
    name = "scaled-roofline"

    def __init__(self, factor: float = 2.0):
        self.factor = factor

    def op_time(self, sample, device, machine):
        return self.factor * super().op_time(sample, device, machine)

    def comm_time(self, comm_bytes, *, link=None, channel=None):
        if link is not None:
            return self.factor * link.transfer_time(comm_bytes)
        return self.factor * comm_bytes / CHANNEL_BANDWIDTH

    def to_dict(self):
        return {"model": self.name, "factor": self.factor}
