"""Field declarations for configs and metrics, and the three functions
that apply them.

Every optional subsystem follows the same three rules: a wrong-typed
spec fails at construction, an inert spec is invisible to the config
digest, and an all-zero metric group is invisible to the metrics
digest.  A dataclass states them once, on the field that owns them:

* ``field(factory=LayoutSpec, digest=AS_NAME)`` — a name-only
  component spec digests as its bare ``name``;
* ``field(factory=FaultSpec, digest=OMIT_WHEN_DEFAULT)`` — left out of
  the digest while equal to its default, so a config expressible
  before the subsystem existed hashes exactly as it always did;
* ``field(0, group="proxy")`` — a metric in a group that is left out
  while every one of its fields is zero.

The digest rule sits on the owning field, not on the spec class: a
cluster digests its workload and node faults always, a member only
while they are active.  A field that does not take part in equality
(``compare=False``) is never digested, and a class may name keys with
no field behind them in ``schema_constants`` (a retired field whose
old value every existing digest contains).  A field may not reuse a
retired key's name: that would silently change what the key means in
every digest, so :func:`canonical_form` raises instead.

:func:`check_types`, :func:`canonical_form` and
:func:`drop_inert_groups` apply the declarations to any dataclass.
"""

from __future__ import annotations

import dataclasses
import typing

AS_NAME = "as_name"
OMIT_WHEN_DEFAULT = "omit_when_default"


def field(
    default: typing.Any = dataclasses.MISSING,
    *,
    factory: typing.Any = dataclasses.MISSING,
    digest: str | None = None,
    group: str | None = None,
) -> typing.Any:
    """A ``dataclasses.field`` carrying a digest rule and/or a metric group."""
    if digest not in (None, AS_NAME, OMIT_WHEN_DEFAULT):
        raise ValueError(
            f"unknown digest rule {digest!r}; choose {AS_NAME!r} or "
            f"{OMIT_WHEN_DEFAULT!r}"
        )
    return dataclasses.field(
        default=default,
        default_factory=factory,
        metadata={"digest": digest, "group": group},
    )


def check_types(obj) -> None:
    """Reject any field of *obj* whose default factory is a dataclass
    but whose value is not an instance of it, naming field and class."""
    for spec in dataclasses.fields(obj):
        cls = spec.default_factory
        value = getattr(obj, spec.name)
        if dataclasses.is_dataclass(cls) and not isinstance(value, cls):
            raise TypeError(
                f"{type(obj).__name__}.{spec.name} must be a "
                f"{cls.__name__}, got {value!r}"
            )


def canonical_form(obj) -> dict:
    """*obj* as JSON-ready values for digests, with every declaration
    applied: nested dataclasses become dicts in their own canonical
    form, ``compare=False`` fields are skipped, and inert metric groups
    are dropped (:func:`drop_inert_groups`)."""
    constants = getattr(obj, "schema_constants", {})
    data = dict(constants)
    for spec in dataclasses.fields(obj):
        if spec.name in constants:
            raise TypeError(
                f"{type(obj).__name__}.{spec.name} reuses the name of a "
                f"retired schema_constants key"
            )
        if not spec.compare:
            continue
        value = getattr(obj, spec.name)
        rule = spec.metadata.get("digest")
        if rule == OMIT_WHEN_DEFAULT and value == _default(spec):
            continue
        if rule == AS_NAME:
            value = value.name
        elif dataclasses.is_dataclass(value):
            value = canonical_form(value)
        data[spec.name] = value
    return drop_inert_groups(obj, data)


def drop_inert_groups(obj, data: dict) -> dict:
    """*data* without the fields of every declared metric group of
    *obj* whose values are all zero."""
    groups: dict[str, list[str]] = {}
    for spec in dataclasses.fields(obj):
        if spec.metadata.get("group"):
            groups.setdefault(spec.metadata["group"], []).append(spec.name)
    for names in groups.values():
        if not any(getattr(obj, name) for name in names):
            for name in names:
                data.pop(name, None)
    return data


def _default(spec: dataclasses.Field) -> typing.Any:
    if spec.default is not dataclasses.MISSING:
        return spec.default
    return spec.default_factory()
