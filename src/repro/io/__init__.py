"""Dataset-directory persistence.

A *dataset directory* is the on-disk shape of everything MAP-IT needs —
the same inputs the paper assembles from CAIDA/RouteViews/RIPE/
PeeringDB/PCH downloads:

```
dataset/
  manifest.json        # metadata: seed, counts, verification ASNs
  traces.txt           # one trace per line (text format)
  bgp/collector-*.txt  # one RIB dump per collector
  cymru.txt            # fallback prefix|asn table
  ixp.txt              # IXP prefix directory
  as2org.txt           # sibling groups
  relationships.txt    # CAIDA serial-1 relationships
  hostnames.txt        # optional: address<TAB>hostname
  groundtruth.txt      # optional: simulator truth for evaluation
```

``#`` comment lines are skipped in every file, bgp dumps included.
This package is the one module that names, finds, reads and writes
these files; the rest of the code calls :func:`find_traces`,
:func:`mapping_paths`, :func:`read_mappings`, :func:`read_manifest`,
:func:`write_dataset`, :func:`write_manifest`, :func:`dataset_complete`
and :func:`save_scenario` (a synthetic scenario), and
:func:`load_bundle` reads any conforming directory — including one
assembled from real measurement data — into the objects
:func:`repro.run_mapit` consumes.
"""

from repro.io.bundle import (
    InputBundle,
    find_traces,
    load_bundle,
    mapping_paths,
    read_manifest,
    read_mappings,
)
from repro.io.save import dataset_complete, save_scenario, write_dataset, write_manifest
from repro.io.truth import load_ground_truth, save_ground_truth

__all__ = [
    "InputBundle",
    "dataset_complete",
    "find_traces",
    "load_bundle",
    "load_ground_truth",
    "mapping_paths",
    "read_manifest",
    "read_mappings",
    "save_ground_truth",
    "save_scenario",
    "write_dataset",
    "write_manifest",
]
