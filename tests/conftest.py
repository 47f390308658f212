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
