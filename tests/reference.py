"""Theory-free references that the tests compare the library against.

A subgroup is the closure of its generators under composition, turned
into a descriptor only at the end; a map fixes a subset when it sends
every element of the subset into it, tested one map at a time with
plain field arithmetic (no translate masks).
"""

from aglstab.agl import AffineMap, subgroup_from_pairs


def mulclose(maps) -> set[AffineMap]:
    """Closure of a set of maps under composition (the generated subgroup)."""
    maps = list(maps)
    if not maps:
        return set()
    els = {AffineMap.identity(maps[0].field)}
    els.update(maps)
    frontier = list(els)
    while frontier:
        new = []
        for g in maps:
            for h in frontier:
                prod = g * h
                if prod not in els:
                    els.add(prod)
                    new.append(prod)
        frontier = new
    return els


def canonicalize(maps):
    """Canonical descriptor of the subgroup generated by ``maps``."""
    maps = list(maps)
    if not maps:
        raise ValueError("cannot infer the field from an empty generating set")
    field = maps[0].field
    closure = mulclose(maps)
    return subgroup_from_pairs(field, ((m.a, m.b) for m in closure))


def reference_fixing_maps(field, mask: int):
    """Every (a, b) whose map x -> a*x + b fixes the masked subset, found
    by testing the q*(q-1) maps one at a time in increasing (a, b) order."""
    elems = [x for x in range(field.q) if mask >> x & 1]
    for a in range(1, field.q):
        for b in range(field.q):
            if all(mask >> field.add(field.mul(a, x), b) & 1 for x in elems):
                yield a, b
