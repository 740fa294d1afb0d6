"""Frozen-structure mutation rules (FRZ001, FRZ002).

``MergedTrie``, ``PatriciaTrie`` and a ``UnibitTrie``'s ``FrozenWalk``
snapshot freeze their lookup arrays at construction; the vectorized
hot paths, the merged-view invalidation bookkeeping, and the per-VN
power attribution all assume the structures never change afterwards.  That contract lives in
docstrings — these rules make it machine-checked:

* **FRZ001** — a direct write to an attribute of a frozen structure:
  ``self.x = ...`` in a method outside the allowed constructor set, or
  ``trie.attr = ...`` / ``setattr(trie, ...)`` / ``trie.attr.append``
  on a variable constructed from (or annotated as) a frozen class;
* **FRZ002** — the same mutation laundered through a helper: the
  frozen instance is passed to a function whose (transitive) effect
  summary mutates that parameter.

The frozen class list and per-class allowed mutator methods come from
rule options, so new frozen structures opt in via ``pyproject.toml``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.staticcheck.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.project import FunctionSummary, ProjectAnalysis

__all__ = ["FrozenDirectMutation", "FrozenMutationViaHelper", "DEFAULT_FROZEN_CLASSES"]

#: class -> methods allowed to mutate ``self`` (construction phase)
DEFAULT_FROZEN_CLASSES: dict[str, list[str]] = {
    "MergedTrie": ["__init__"],
    "PatriciaTrie": ["__init__", "_new_node", "_build"],
    # a trie's walk snapshot: its arrays are read-only from birth, and
    # no method (its __post_init__ included) assigns through self
    "FrozenWalk": [],
}


def _frozen_roots(fn: "FunctionSummary", frozen: dict[str, list[str]]) -> dict[str, str]:
    """Names in ``fn`` statically known to hold frozen instances."""
    roots: dict[str, str] = {}
    for var, cls in fn.constructed.items():
        if cls in frozen:
            roots[var] = cls
    for param, cls in fn.param_annotations.items():
        if cls in frozen:
            roots[param] = cls
    return roots


class _FrozenRule(Rule):
    """Shared option handling for the FRZ pack."""

    scope = "project"
    default_options = {"frozen-classes": DEFAULT_FROZEN_CLASSES}

    def frozen_classes(self) -> dict[str, list[str]]:
        """Normalized ``{class: [allowed methods]}`` option."""
        raw = self.options.get("frozen-classes", DEFAULT_FROZEN_CLASSES)
        if isinstance(raw, dict):
            return {cls: list(methods) for cls, methods in raw.items()}
        # plain list form: allow only __init__
        return {cls: ["__init__"] for cls in raw}


@register
class FrozenDirectMutation(_FrozenRule):
    """FRZ001: direct attribute write to a frozen structure post-freeze."""

    id = "FRZ001"
    name = "frozen-direct-mutation"
    description = "structures documented frozen must not be mutated after construction"

    def check_project(self, project: "ProjectAnalysis") -> None:
        """Flag self-writes outside constructors and writes via bindings."""
        frozen = self.frozen_classes()
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            path = project.modules[fn.module].path
            # methods of a frozen class mutating self outside the allowed set
            if (
                fn.enclosing_class in frozen
                and fn.localname.split(".")[-1] not in frozen[fn.enclosing_class]
            ):
                for mutation in fn.attr_mutations:
                    if mutation.root == "self":
                        self.report_at(
                            path,
                            mutation.line,
                            mutation.col,
                            f"'{fn.enclosing_class}' is frozen after construction; "
                            f"'{mutation.detail}' in method "
                            f"'{fn.localname.split('.')[-1]}' mutates it",
                        )
            # writes through local bindings / annotated params
            roots = _frozen_roots(fn, frozen)
            for mutation in fn.attr_mutations:
                cls = roots.get(mutation.root)
                if cls is not None:
                    self.report_at(
                        path,
                        mutation.line,
                        mutation.col,
                        f"'{mutation.detail}' mutates frozen '{cls}' instance "
                        f"'{mutation.root}'",
                    )


@register
class FrozenMutationViaHelper(_FrozenRule):
    """FRZ002: frozen structure mutated through a helper call."""

    id = "FRZ002"
    name = "frozen-helper-mutation"
    description = "helpers must not mutate frozen structures passed to them"

    def check_project(self, project: "ProjectAnalysis") -> None:
        """Flag calls forwarding a frozen instance into a mutating callee."""
        frozen = self.frozen_classes()
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            roots = _frozen_roots(fn, frozen)
            if not roots:
                continue
            path = project.modules[fn.module].path
            for target, call in project.call_edges(fn.qualname):
                callee = project.functions.get(target)
                if callee is None:
                    continue
                mutated = project.mutated_params(target)
                if not mutated:
                    continue
                params = list(callee.params)
                if callee.enclosing_class and params and params[0] in ("self", "cls"):
                    params = params[1:]
                hits: list[tuple[str, str]] = []
                for pos, root in enumerate(call.arg_roots):
                    if root in roots and pos < len(params) and params[pos] in mutated:
                        hits.append((root, params[pos]))
                for kw, root in call.kwarg_roots.items():
                    if root in roots and kw in mutated:
                        hits.append((root, kw))
                for root, param in hits:
                    self.report_at(
                        path,
                        call.line,
                        call.col,
                        f"passes frozen '{roots[root]}' instance '{root}' to "
                        f"'{callee.qualname}', which mutates parameter '{param}'",
                    )
