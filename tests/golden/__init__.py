"""Golden records pinned across commits, and the diff helper they share."""


def _union(a: dict, b: dict) -> list:
    """Keys of ``a`` in order, then those only ``b`` has."""
    return list(a) + [k for k in b if k not in a]


def first_difference(golden: dict, got: dict) -> str:
    """The first differing field (and key, for the dict fields)."""
    for field in _union(golden, got):
        want, have = golden.get(field), got.get(field)
        if want == have:
            continue
        if isinstance(want, dict) and isinstance(have, dict):
            for key in _union(want, have):
                if want.get(key) != have.get(key):
                    return (f"{field}[{key!r}]: golden {want.get(key)!r}, "
                            f"now {have.get(key)!r}")
        return f"{field}: golden {want!r}, now {have!r}"
    return "same values, different bytes (key order or float formatting)"
