"""CI self-test: `repro lint` on this file MUST exit nonzero.

One violation per checker family; if any checker regresses to silence,
the CI lint self-test step fails the build.
"""

import time
from dataclasses import dataclass

import numpy as np


def unseeded():
    return np.random.default_rng()  # RPR101


def stamped():
    return time.time()  # RPR102


@dataclass
class Spec:
    a: int
    b: int

    def spec_hash(self):
        return hash((self.a,))  # RPR104 + RPR204 (payload unverifiable)

    def content_hash_payload(self):
        return {"a": self.a}  # RPR201: b missing


__all__ = ["unseeded", "stamped", "Spec", "does_not_exist"]  # RPR401
