"""Record reference.json: the outputs every benchmark job is checked against.

Run from the repository root at the commit whose outputs are the
reference:  python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

from workloads import (BOX_SEARCHES, CHECK_FILES, GRID_CELLS, PAPER_FILES,
                       REFERENCE, ROOT, check_output, decide, grid_docs,
                       import_loopsynth, parse_files, parse_system, synth_output)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    mods = import_loopsynth()
    stems = dict.fromkeys(PAPER_FILES + tuple(f for f, _, _ in GRID_CELLS) + CHECK_FILES)
    docs = parse_files(mods, stems)
    synth = {}
    for doc in [docs[f] for f in PAPER_FILES] + grid_docs(mods, docs):
        synth[doc.name] = synth_output(mods.pipeline.run_pipeline(doc))
        print(doc.name, synth[doc.name]["status"], file=sys.stderr)
    check = {f: check_output(mods.pipeline.run_check(docs[f])) for f in CHECK_FILES}
    box = {}
    for stem, bound in BOX_SEARCHES:
        system = parse_system(mods, docs[stem], synth[stem]["system"])
        hits = mods.solve.brute_force_box(system, bound)
        box[stem] = {"bound": bound,
                     "hits": [list(h) for h in hits],
                     "verdicts": [list(decide(mods, docs[stem], h)) for h in hits if any(h)]}
        print(stem, len(hits), "hits", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"synth": synth, "check": check, "box": box}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
