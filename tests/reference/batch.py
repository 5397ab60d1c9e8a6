"""Batch oracle: the pre-pool runner, one cold tool per task.

Each document goes to a fresh ``ProcessPoolExecutor`` task that rebuilds
:class:`repro.SpecCC` from the configuration, so nothing is cached
between documents.  The pool tests compare its reports byte for byte
with the production backends, and the service benchmark reports its
cold-start cost next to the persistent pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import List, Sequence, Tuple

from repro.core.pipeline import SpecCC, SpecCCConfig
from repro.service.batch import BatchResult, Document, _check_document
from repro.service.reportjson import error_to_dict, report_to_dict


def _process_worker(setup: tuple, item: Tuple[str, Document]) -> dict:
    """One document, canonical dict out, error-isolated."""
    config, dictionary, signs = setup
    tool = SpecCC(config, dictionary=dictionary, signs=signs)
    try:
        return report_to_dict(_check_document(tool, item[1]), timings=False)
    except Exception as error:  # noqa: BLE001 - isolated per document
        return error_to_dict(error)


def check_fresh_processes(
    documents: Sequence[Tuple[str, Document]],
    workers: int = 4,
    config: SpecCCConfig = SpecCCConfig(),
) -> List[BatchResult]:
    """Check ``(name, document)`` items, one fresh process task each."""
    items = list(documents)
    translator = SpecCC(config).translator
    setup = (config, translator.dictionary, translator.signs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        dicts = list(pool.map(partial(_process_worker, setup), items))
    return [BatchResult(name, data) for (name, _), data in zip(items, dicts)]
