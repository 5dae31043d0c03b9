"""
Multi-language comparison reports
=================================

The report pipeline ties everything together: each configured language is
read, segmented, and measured independently (failures are isolated per
row), and the merged table is emitted as TSV/CSV/JSON. This demo builds two
toy languages on disk, writes a config file, and runs the same pipeline the
`morphlens run` command uses.
"""

import random
import tempfile
from pathlib import Path

from morphlens.report import emit, load_config, run

rng = random.Random(0)


def make_language(workdir, tag, stems, suffixes, n_suffixes):
    corpus = workdir / f"{tag}.txt"
    vocab = workdir / f"{tag}.tsv"
    words = [
        rng.choice(stems) + "".join(rng.choice(suffixes) for _ in range(n_suffixes))
        for _ in range(4000)
    ]
    corpus.write_text(
        "\n".join(" ".join(words[i : i + 8]) for i in range(0, len(words), 8)) + "\n",
        encoding="utf-8",
    )
    pieces = [f"{p}\t-5.0" for p in stems + suffixes]
    pieces += [f"{c}\t-40.0" for c in sorted({c for p in stems + suffixes for c in p})]
    vocab.write_text("\n".join(pieces) + "\n", encoding="utf-8")
    return corpus, vocab


stems = ["pelo", "kelo", "muta", "sora", "vani"]
with tempfile.TemporaryDirectory(prefix="morphlens_demo_") as tmp:
    workdir = Path(tmp)
    fus_c, fus_v = make_language(workdir, "fusional", stems, ["ri", "ne", "ka"], 1)
    agg_c, agg_v = make_language(
        workdir, "agglutinative", stems, ["ri", "ne", "ka", "tu", "lo", "se"], 3
    )

    config_path = workdir / "run.ini"
    config_path.write_text(
        f"""[run]
window = 100
mattr_window = 200
percent = true
sort_by = eta

[language:Fusional-like]
corpus = {fus_c}
vocab = {fus_v}
grouping = FL

[language:Agglutinative-like]
corpus = {agg_c}
vocab = {agg_v}
grouping = AL
""",
        encoding="utf-8",
    )

    report = run(load_config(config_path))
    print("\n".join(emit(report, "tsv", percent=True)), end="\n\n")
print("rows are sorted by eta; the suffix-stacking language scores higher")
