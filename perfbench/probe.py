"""One set-up sample, in a fresh interpreter so that the import is cold.

Times ``import onto_enrich`` and loading a fixed ontology into a graph and a
compiled label index (parse_triples -> build_graph -> build_label_index ->
CompiledLabelIndex.compile), and prints ``{"setup_s": ..., "entries": ...}``.

    python3 perfbench/probe.py SRC_DIR ONTOLOGY LEXICON STOPLIST
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    src, ontology, lexicon, stoplist = sys.argv[1:5]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import onto_enrich

    graph = onto_enrich.build_graph(onto_enrich.parse_triples(Path(ontology).read_bytes()))
    index = onto_enrich.build_label_index(
        graph,
        onto_enrich.load_lexicon(Path(lexicon).read_bytes()),
        onto_enrich.load_stoplist(Path(stoplist).read_bytes()),
    )
    onto_enrich.CompiledLabelIndex.compile(index)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "entries": len(index)}))


if __name__ == "__main__":
    main()
