"""Branch target buffer: direct-mapped, tagged, 2-bit saturating counters.

Table 5: "2048 entry direct-mapped BTB with 2-bit saturating counters,
2 cycle misprediction penalty". A branch predicts taken when its BTB
entry hits with counter >= 2; the predicted target is the stored one, so
a taken branch with a different target (e.g. ``jr``) still mispredicts.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """Direct-mapped BTB."""

    def __init__(self, entries: int = 2048):
        self.entries = entries
        self._tags = [-1] * entries
        self._targets = [0] * entries
        self._counters = [1] * entries  # weakly not-taken on allocation
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> tuple[int, int]:
        word = pc >> 2
        return word % self.entries, word // self.entries

    def predict(self, pc: int) -> tuple[bool, int]:
        """Return (taken?, target) prediction for the branch at ``pc``."""
        index, tag = self._index(pc)
        if self._tags[index] == tag and self._counters[index] >= 2:
            return True, self._targets[index]
        return False, pc + 4

    def update(self, pc: int, taken: bool, target: int) -> bool:
        """Record the outcome; returns True when prediction was correct.

        The prediction is :meth:`predict`'s, computed inline: this runs
        once per retired branch in every timing run."""
        self.lookups += 1
        word = pc >> 2
        index = word % self.entries
        tag = word // self.entries
        counters = self._counters
        if self._tags[index] != tag:
            # predicted not taken
            correct = not taken
            if taken:
                self._tags[index] = tag
                self._targets[index] = target
                counters[index] = 2
        else:
            counter = counters[index]
            if counter >= 2:
                correct = taken and self._targets[index] == target
            else:
                correct = not taken
            if taken:
                counters[index] = counter + 1 if counter < 3 else 3
                self._targets[index] = target
            elif counter > 0:
                counters[index] = counter - 1
        if not correct:
            self.mispredicts += 1
        return correct

    @property
    def accuracy(self) -> float:
        return 1.0 - (self.mispredicts / self.lookups) if self.lookups else 0.0
