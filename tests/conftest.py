import sys

import pytest

# the module, not the `pretokenize` function that `morphlens` exports under its name
import morphlens.pretokenize  # noqa: F401
from morphlens.corpus import BATCH_LINES

pretokenize_module = sys.modules["morphlens.pretokenize"]


@pytest.fixture
def fresh_pretokenizer(monkeypatch):
    """Reset the pretokenizer's learned classes to those of ASCII, as in a
    new process, now and at each call of the returned function. The learned
    classes of the session come back after the test."""

    def reset():
        m = pretokenize_module
        monkeypatch.setattr(m, "_learned", m._Classes(frozenset({0})))

    reset()
    return reset


_BOUNDARY_WORDS = ["ab", "ba", "abc", "ca", "cab", "ab,", "(bc)", "q", "жa"]


def _boundary_lines(n):
    """n lines of words, with empty and whitespace-only lines among them;
    "¡" is first seen in the middle of the first batch of lines and "‽" in a
    later batch."""
    lines = []
    for i in range(n):
        if i % 7 == 3:
            lines.append("")
        elif i % 11 == 5:
            lines.append(" \t  ")
        else:
            words = (_BOUNDARY_WORDS[(i * 5 + k) % len(_BOUNDARY_WORDS)] for k in range(i % 4 + 1))
            lines.append(" ".join(words))
    if n > BATCH_LINES // 2:
        lines[BATCH_LINES // 2] = "ab¡ca ¡¡ ba"
    if n > BATCH_LINES:
        lines[-1] = "ca‽ ‽ab"
    return lines


@pytest.fixture
def boundary_lines(fresh_pretokenizer):
    """The function from a line count to its corpus, for corpora around the
    batch size; the pretokenizer starts from ASCII, so it learns "¡" and "‽"
    from them."""
    return _boundary_lines
