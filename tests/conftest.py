import random

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def same_state(a, b) -> bool:
    """Whether two records hold equal values: slot by slot, nested records the same way.

    The mutable state records are ``__slots__`` classes without ``__eq__``;
    anything else (named tuples, dicts, enums, numbers, None) compares with ``==``.
    """
    if type(a) is not type(b):
        return False
    slots = getattr(type(a), "__slots__", ())
    if not slots:
        return a == b
    return all(same_state(getattr(a, name), getattr(b, name)) for name in slots)


class LoggedRandom(random.Random):
    """A ``Random`` that logs each draw; every other draw goes through these two methods."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def random(self):
        self.calls.append("random")
        return super().random()

    def getrandbits(self, k):
        self.calls.append(f"getrandbits({k})")
        return super().getrandbits(k)
