"""Baseline systems the paper compares against qualitatively (§V).

To make the §V claims measurable, two comparators are implemented:

* :mod:`repro.baselines.full_record` — MedRec-style sharing [4]: the whole
  record is shared with each authorised peer (access control on the full
  record, no fine-grained views).  Used by the exposure benchmark (E7).
* :mod:`repro.baselines.onchain_storage` — HDG-style storage [22]: the raw
  medical data itself is stored on-chain, so every node replicates it.  Used
  by the storage-pressure benchmark (E6).
"""

from repro.baselines.full_record import FullRecordSharingBaseline
from repro.baselines.onchain_storage import OnChainStorageBaseline

__all__ = [
    "FullRecordSharingBaseline",
    "OnChainStorageBaseline",
]
