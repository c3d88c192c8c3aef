"""Permutations on points 1..degree, with cycle-notation parsing and printing.

Composition is left-to-right throughout: (a * b) means "apply a, then b".
Commutator values downstream depend on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPermutation


@dataclass(frozen=True)
class Permutation:
    degree: int
    image: tuple[int, ...]  # 1-based: point i maps to image[i-1]

    def __post_init__(self):
        if self.degree <= 0:
            raise InvalidPermutation(f"degree must be positive, got {self.degree}")
        if len(self.image) != self.degree:
            raise InvalidPermutation(f"image has {len(self.image)} entries for degree {self.degree}")
        if sorted(self.image) != list(range(1, self.degree + 1)):
            raise InvalidPermutation(f"image {self.image} is not a bijection on 1..{self.degree}")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(degree, tuple(range(1, degree + 1)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its smallest point."""
        img, seen = self.image, [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            p = img[start - 1]
            while p != start:
                cyc.append(p)
                seen[p - 1] = True
                p = img[p - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out


def format_cycles(perm: Permutation) -> str:
    """Cycle notation with space-separated points, e.g. "(1 2 3)(4 5)"; identity is "e"."""
    cycs = perm.cycles()
    if not cycs:
        return "e"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse "(1 2 3)(4 5)" into a Permutation of the given degree.

    Accepts "e" and "()" for the identity. Points are 1-based and must not
    repeat across cycles.
    """
    s = text.strip()
    if s in ("e", "()", ""):
        return Permutation.identity(degree)
    img = list(range(1, degree + 1))
    seen: set[int] = set()
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise InvalidPermutation(f"unexpected character {ch!r} in cycle notation {text!r}")
        j = s.find(")", i)
        if j < 0:
            raise InvalidPermutation(f"unclosed cycle in {text!r}")
        body = s[i + 1 : j].replace(",", " ")
        pts = []
        for tok in body.split():
            try:
                p = int(tok)
            except ValueError:
                raise InvalidPermutation(f"bad point {tok!r} in {text!r}") from None
            if not 1 <= p <= degree:
                raise InvalidPermutation(f"point {p} out of range 1..{degree} in {text!r}")
            if p in seen:
                raise InvalidPermutation(f"point {p} repeated in {text!r}")
            seen.add(p)
            pts.append(p)
        if len(pts) >= 2:
            for a, b in zip(pts, pts[1:]):
                img[a - 1] = b
            img[pts[-1] - 1] = pts[0]
        i = j + 1
    return Permutation(degree, tuple(img))
