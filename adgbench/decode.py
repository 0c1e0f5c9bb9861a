"""Decode descriptions with a trained checkpoint, the way ``evaluate`` does.

    python3 adgbench/decode.py CHECKPOINT DATA.tsv WIDTH MAX_LEN REACH_FILTER(0|1)

Prints one JSON list of token lists, one per record of ``DATA.tsv``.  The
benchmark recomputes the ``evaluate`` report's Acc and Bleu from these
candidates.  ``PYTHONPATH`` must point at the checkout's ``src/``.
"""

import json
import sys

from adgcode.model import beam_search, load_checkpoint
from adgcode.signatures import read_pairs


def main(argv):
    ckpt, data, width, max_len, reach = argv
    with open(ckpt, "rb") as fh:
        model = load_checkpoint(fh.read())
    node_embeddings = model.embed_nodes()
    candidates = [
        beam_search(
            model, desc, width=int(width), max_len=int(max_len),
            node_embeddings=node_embeddings, reach_filter=reach == "1",
        )
        for desc, _ in read_pairs(data)
    ]
    json.dump(candidates, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
