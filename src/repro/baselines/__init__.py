"""Insert-only baselines the paper compares against (Section VI-A).

* :class:`~repro.baselines.fleet.Fleet` — FLEET3 (Sanei-Mehri et al.,
  CIKM 2019): Bernoulli sampling with adaptive reservoir resizing.
* :class:`~repro.baselines.cas.CoAffiliationSampling` — CAS-R (Li et
  al., TKDE 2022): edge reservoir plus an AMS sketch over co-affiliation
  (wedge) frequencies.
* :class:`~repro.baselines.sgrapp.SGrapp` — sGrapp (Sheshbolouki &
  Özsu, TKDD 2022): window-based counting with a fitted butterfly
  densification power law (related-work §VII-C; not one of the paper's
  two evaluation baselines but included for completeness).

All ignore edge deletions — their defining limitation and the source of
their accuracy collapse on fully dynamic streams.
"""

from repro._lazy import lazy_exports

__all__ = ["Fleet", "CoAffiliationSampling", "SGrapp"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.cas": ("CoAffiliationSampling",),
        "repro.baselines.fleet": ("Fleet",),
        "repro.baselines.sgrapp": ("SGrapp",),
    },
)
