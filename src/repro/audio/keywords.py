"""Keyword spotting with a finite state grammar (§5.2).

"For the recognition of specific keywords we used a keyword-spotting tool,
which is based on a finite state grammar. We extract a couple of tens of
words that can be usually heard when the commentator is excited ... Two
different acoustic models have been tried for this purpose. One was trained
for clean speech, and the other was aimed at word recognition in TV news.
The latter showed better results."

The paper's tool (TNO-Abbot) consumed broadcast audio; here the acoustic
front-end is simulated (documented substitution): the synthetic commentary
carries its true phone stream, and an :class:`AcousticModel` turns it into
a noisy :class:`PhoneLattice` of per-phone posteriors — the clean-speech
model with more confusion on broadcast audio than the TV-news model, which
is what makes the paper's model comparison reproducible. The spotter
itself is real: a keyword-loop finite state grammar decoded over the
lattice, emitting per-hit non-normalized score, start time and duration,
plus the normalization step that feeds the DBN's f1 evidence node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SignalError

__all__ = [
    "PHONES",
    "F1_KEYWORDS",
    "AcousticModel",
    "CLEAN_SPEECH_MODEL",
    "TV_NEWS_MODEL",
    "PhoneLattice",
    "KeywordHit",
    "KeywordSpotter",
    "keyword_stream",
]

#: Simplified phone inventory (enough to spell the F1 lexicon).
PHONES = tuple("abdefghijklmnoprstuvwz") + ("sh", "ch", "th")

_PHONE_INDEX = {p: i for i, p in enumerate(PHONES)}

#: Duration of one phone slot in the lattice, seconds.
PHONE_SECONDS = 0.1

#: "a couple of tens of words that can be usually heard when the commentator
#: is excited, or it is a specific part of the race that we are interested
#: in" — the spotting lexicon, word -> phone spelling.
F1_KEYWORDS: dict[str, tuple[str, ...]] = {
    "accident": ("a", "k", "s", "i", "d", "e", "n", "t"),
    "crash": ("k", "r", "a", "sh"),
    "overtake": ("o", "v", "e", "r", "t", "e", "k"),
    "passing": ("p", "a", "s", "i", "n", "g"),
    "pitstop": ("p", "i", "t", "s", "t", "o", "p"),
    "start": ("s", "t", "a", "r", "t"),
    "leader": ("l", "i", "d", "e", "r"),
    "spin": ("s", "p", "i", "n"),
    "gravel": ("g", "r", "a", "v", "e", "l"),
    "offtrack": ("o", "f", "t", "r", "a", "k"),
    "incredible": ("i", "n", "k", "r", "e", "d", "i", "b", "l"),
    "unbelievable": ("u", "n", "b", "i", "l", "i", "v", "a", "b", "l"),
    "fantastic": ("f", "a", "n", "t", "a", "s", "t", "i", "k"),
    "amazing": ("a", "m", "e", "z", "i", "n", "g"),
    "schumacher": ("sh", "u", "m", "a", "h", "e", "r"),
    "hakkinen": ("h", "a", "k", "i", "n", "e", "n"),
    "barrichello": ("b", "a", "r", "i", "k", "e", "l", "o"),
    "montoya": ("m", "o", "n", "t", "o", "j", "a"),
    "coulthard": ("k", "u", "l", "th", "a", "r", "d"),
    "flyout": ("f", "l", "a", "j", "o", "u", "t"),
    "winner": ("w", "i", "n", "e", "r"),
    "finalap": ("f", "i", "n", "a", "l", "a", "p"),
}


@dataclass(frozen=True)
class AcousticModel:
    """A simulated acoustic front-end.

    Attributes:
        name: model label.
        accuracy: probability mass the posterior puts on the true phone on
            broadcast (F1) audio; the rest is spread over confusable phones.
        confusion_spread: number of confusable phones sharing the residual
            mass.
    """

    name: str
    accuracy: float
    confusion_spread: int = 4

    def decode(
        self, phones: Sequence[str | None], rng: np.random.Generator
    ) -> "PhoneLattice":
        """Produce a noisy posterior lattice from a true phone stream.

        ``None`` entries mark non-speech slots: the front-end outputs a
        flat, noisy posterior there (nothing to recognize).
        """
        n = len(phones)
        posteriors = np.zeros((n, len(PHONES)))
        for i, phone in enumerate(phones):
            if phone is None:
                posteriors[i] = rng.dirichlet(np.ones(len(PHONES)))
                continue
            if phone not in _PHONE_INDEX:
                raise SignalError(f"unknown phone {phone!r}")
            true_index = _PHONE_INDEX[phone]
            # Jitter the true-phone mass around the model accuracy.
            mass = float(np.clip(rng.normal(self.accuracy, 0.08), 0.05, 0.98))
            posteriors[i, true_index] = mass
            others = rng.choice(
                [k for k in range(len(PHONES)) if k != true_index],
                size=self.confusion_spread,
                replace=False,
            )
            residual = rng.dirichlet(np.ones(self.confusion_spread)) * (1 - mass)
            posteriors[i, others] = residual
        return PhoneLattice(posteriors)


#: Model "trained for clean speech" — degraded on broadcast audio.
CLEAN_SPEECH_MODEL = AcousticModel("clean-speech", accuracy=0.55)
#: Model "aimed at word recognition in TV news" — the paper's better pick.
TV_NEWS_MODEL = AcousticModel("tv-news", accuracy=0.78)


class PhoneLattice:
    """Per-slot phone posteriors, shape (n_slots, n_phones)."""

    def __init__(self, posteriors: np.ndarray):
        posteriors = np.asarray(posteriors, dtype=np.float64)
        if posteriors.ndim != 2 or posteriors.shape[1] != len(PHONES):
            raise SignalError(
                f"lattice must have shape (n, {len(PHONES)}), got {posteriors.shape}"
            )
        self.posteriors = posteriors

    def __len__(self) -> int:
        return self.posteriors.shape[0]


@dataclass
class KeywordHit:
    """One spotted keyword occurrence.

    Attributes:
        word: lexicon entry.
        start_time: seconds from lattice start.
        duration: seconds.
        score: non-normalized probability (product of phone posteriors).
        normalized_score: per-phone geometric mean in [0, 1] — the
            "normalization step based on keyword spotting system outputs"
            that feeds the probabilistic network.
    """

    word: str
    start_time: float
    duration: float
    score: float
    normalized_score: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


class KeywordSpotter:
    """Keyword-loop FSG decoding over a phone lattice.

    The grammar is the standard spotting construction: a filler state that
    consumes any phone, with one branch per keyword whose phones must be
    matched consecutively. Decoding scans every lattice slot as a potential
    keyword entry point and scores the aligned phones.
    """

    def __init__(
        self,
        lexicon: dict[str, tuple[str, ...]] | None = None,
        threshold: float = 0.35,
    ):
        self.lexicon = dict(lexicon or F1_KEYWORDS)
        if not self.lexicon:
            raise SignalError("keyword spotter needs a non-empty lexicon")
        for word, spelling in self.lexicon.items():
            unknown = [p for p in spelling if p not in _PHONE_INDEX]
            if unknown:
                raise SignalError(f"word {word!r} uses unknown phones {unknown}")
        self.threshold = threshold
        # "we separate words into several categories based on their length"
        # (§5.4 does this for OCR; the spotter applies the same trick so one
        # scan groups words by phone count).
        self._by_length: dict[int, list[str]] = {}
        for word, spelling in self.lexicon.items():
            self._by_length.setdefault(len(spelling), []).append(word)

    def spot(self, lattice: PhoneLattice) -> list[KeywordHit]:
        """All above-threshold keyword hits, best-first, non-overlapping per
        word."""
        hits: list[KeywordHit] = []
        n = len(lattice)
        for length, words in self._by_length.items():
            if length > n:
                continue
            for word in words:
                spelling = self.lexicon[word]
                scores = self._score_word(lattice, spelling)
                for start, score in enumerate(scores):
                    normalized = score ** (1.0 / length)
                    if normalized >= self.threshold:
                        hits.append(
                            KeywordHit(
                                word=word,
                                start_time=start * PHONE_SECONDS,
                                duration=length * PHONE_SECONDS,
                                score=float(score),
                                normalized_score=float(normalized),
                            )
                        )
        hits.sort(key=lambda h: -h.normalized_score)
        return _suppress_overlaps(hits)

    def _score_word(
        self, lattice: PhoneLattice, spelling: tuple[str, ...]
    ) -> np.ndarray:
        """Product of phone posteriors for every start slot (vectorized)."""
        n = len(lattice)
        length = len(spelling)
        columns = [
            lattice.posteriors[offset : n - length + offset + 1, _PHONE_INDEX[p]]
            for offset, p in enumerate(spelling)
        ]
        return np.prod(np.stack(columns), axis=0)


def _suppress_overlaps(hits: list[KeywordHit]) -> list[KeywordHit]:
    """Greedy non-maximum suppression of same-word overlapping hits."""
    kept: list[KeywordHit] = []
    for hit in hits:
        clash = any(
            k.word == hit.word
            and hit.start_time < k.end_time
            and k.start_time < hit.end_time
            for k in kept
        )
        if not clash:
            kept.append(hit)
    return kept


def keyword_stream(
    hits: Iterable[KeywordHit], n_clips: int, clip_seconds: float = 0.1
) -> np.ndarray:
    """Rasterize keyword hits into the f1 evidence stream.

    Each 0.1 s clip gets the best normalized score among hits overlapping
    it (0 where no keyword is active).
    """
    out = np.zeros(n_clips)
    for hit in hits:
        lo = max(int(hit.start_time / clip_seconds), 0)
        hi = min(int(np.ceil(hit.end_time / clip_seconds)), n_clips)
        if lo < hi:
            out[lo:hi] = np.maximum(out[lo:hi], hit.normalized_score)
    return out
