"""One owner for the dataset directory's layout.

``repro.io`` names, finds, reads and writes a dataset's files
(``find_traces``, ``mapping_paths``, ``read_mappings``,
``read_manifest``, ``write_dataset``, ``write_manifest``,
``dataset_complete``); every other module calls it.  A second spelling of
a file name outside it is a second copy of the format, free to drift
from the loader's (docs/ARCHITECTURE.md, "Layering rules").
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: every data file of a dataset directory (docs/DATASETS.md)
DATA_FILES = {
    "traces.txt",
    "traces.jsonl",
    "cymru.txt",
    "ixp.txt",
    "as2org.txt",
    "relationships.txt",
    "groundtruth.txt",
    "hostnames.txt",
    "manifest.json",
}


def file_name_constants(path):
    """The data-file names *path* spells as whole string constants."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in DATA_FILES
        }
    )


def test_only_repro_io_names_dataset_files():
    owner = SRC / "io"
    spelled = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if owner not in path.parents
        for names in [file_name_constants(path)]
        if names
    }
    assert spelled == {}


def test_the_scan_sees_the_owner():
    """The scan finds the names where they live, so an empty result
    above means no other module spells them."""
    found = set()
    for path in (SRC / "io").rglob("*.py"):
        found.update(file_name_constants(path))
    assert found == DATA_FILES
