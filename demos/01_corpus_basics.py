"""
Corpus handling: counts, reproducible sampling, byte premiums
=============================================================

Everything downstream starts from a line corpus. This walkthrough builds a
small in-memory corpus and shows the size statistics, the seeded reservoir
sampler, and the byte-premium ratio between two parallel texts.
"""

from morphlens.corpus import Corpus, byte_premium, corpus_counts, sample_lines

corpus = Corpus.from_lines(
    [
        "the cat sat on the mat",
        "el gato se sento en la alfombra",
        "die Katze sass auf der Matte",
        "le chat s'assit sur le tapis",
    ]
)

counts = corpus_counts(corpus, pretokenized=True)
print("characters:", counts.ccc)
print("bytes:     ", counts.cbc)
print("words:     ", counts.cwc)
print("lines:     ", counts.csc)

# sampling is deterministic per seed, so experiments can be re-run exactly
big = Corpus.from_lines([f"line {i}" for i in range(10000)])
print("\nsample with seed 7: ", list(sample_lines(big, 5, seed=7)))
print("same seed again:    ", list(sample_lines(big, 5, seed=7)))
print("a different seed:   ", list(sample_lines(big, 5, seed=8)))

# byte premium: how many more UTF-8 bytes a language needs for parallel text
greek = Corpus.from_lines(["η γατα καθισε στο χαλι"])
english = Corpus.from_lines(["the cat sat on the mat"])
print("\nbyte premium (Greek vs English): %.3f" % byte_premium(greek, english))
