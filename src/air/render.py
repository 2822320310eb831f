"""Deterministic SVG pictures of configurations and their overlays.

Output is a plain SVG 1.1 document built from exact rational geometry:
coordinates are fixed at six fractional digits computed by integer rounding,
attributes are emitted in sorted order, and nothing varies between runs, so
identical scenes give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactgeom import (
    Direction,
    PointConfig,
    convex_hull,
    format_rational,
    parse_rational,
)


class EmptyScene(ValueError):
    pass


class MalformedScene(ValueError):
    """A scene document lacks a key or has the wrong shape."""


def _get(obj, key: str, where: str):
    if key not in obj:
        raise MalformedScene(f"{where} lacks key {key!r}")
    return obj[key]


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise MalformedScene(f"{where} must be a JSON list, not {v!r}")
    return v


def _labels(v, where: str) -> List[str]:
    if not all(isinstance(l, str) for l in _list(v, where)):
        raise MalformedScene(f"{where} must list string labels, not {v!r}")
    return list(v)


@dataclass
class Overlay:
    kind: str                      # "triangulation" | "path" | "hull" | "rays"
    cells: List[List[str]] = field(default_factory=list)   # triangulation
    vertices: List[str] = field(default_factory=list)      # path
    rays: List[Direction] = field(default_factory=list)    # rays

    def to_obj(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind}
        if self.kind == "triangulation":
            out["cells"] = [list(c) for c in self.cells]
        elif self.kind == "path":
            out["vertices"] = list(self.vertices)
        elif self.kind == "rays":
            out["rays"] = [str(r) for r in self.rays]
        return out

    @staticmethod
    def from_obj(obj: dict) -> "Overlay":
        if not isinstance(obj, dict):
            raise MalformedScene(
                f"an overlay must be a JSON object, not {obj!r}")
        kind = obj.get("kind")
        if kind == "triangulation":
            cells = _list(_get(obj, "cells", "a triangulation"), "cells")
            return Overlay("triangulation",
                           cells=[_labels(c, "a cell") for c in cells])
        if kind == "path":
            return Overlay("path", vertices=_labels(
                _get(obj, "vertices", "a path"), "vertices"))
        if kind == "hull":
            return Overlay("hull")
        if kind == "rays":
            rays = []
            for r in _list(obj.get("rays", []), "rays"):
                parts = r.split(",") if isinstance(r, str) else []
                try:
                    dx, dy = map(int, parts)
                except ValueError as exc:
                    raise MalformedScene(
                        f"a ray must read 'dx,dy', not {r!r}") from exc
                rays.append(Direction.of(dx, dy))
            return Overlay("rays", rays=rays)
        raise MalformedScene(f"unknown overlay kind: {kind!r}")


@dataclass
class Scene:
    config: PointConfig
    overlays: List[Overlay] = field(default_factory=list)
    viewport: Optional[Tuple[Fraction, Fraction, Fraction, Fraction]] = None
    #          (xmin, ymin, xmax, ymax)
    style: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        known = set(self.config.labels)
        for ov in self.overlays:
            used = set(ov.vertices) | {l for c in ov.cells for l in c}
            if not used <= known:
                raise MalformedScene(f"overlay references unknown labels "
                                     f"{sorted(used - known)}")

    def to_obj(self) -> dict:
        out: Dict[str, object] = {
            "config": self.config.to_obj(),
            "overlays": [o.to_obj() for o in self.overlays],
        }
        if self.viewport is not None:
            out["viewport"] = [format_rational(v) for v in self.viewport]
        if self.style:
            out["style"] = dict(sorted(self.style.items()))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "Scene":
        if not isinstance(obj, dict):
            raise MalformedScene(f"a scene must be a JSON object, not {obj!r}")
        config = PointConfig.from_obj(_get(obj, "config", "a scene"))
        overlays = [Overlay.from_obj(o)
                    for o in _list(obj.get("overlays", []), "overlays")]
        viewport = None
        if "viewport" in obj:
            corners = _list(obj["viewport"], "viewport")
            if len(corners) != 4:
                raise MalformedScene("viewport must list xmin, ymin, xmax, ymax")
            viewport = tuple(parse_rational(v) for v in corners)
        style = obj.get("style", {})
        if not isinstance(style, dict):
            raise MalformedScene(f"style must be a JSON object, not {style!r}")
        return Scene(config, overlays, viewport, dict(style))

    @staticmethod
    def from_json(text: str) -> "Scene":
        return Scene.from_obj(json.loads(text))


def _dec6(x: Fraction) -> str:
    """Exact decimal with six fractional digits (no float round-trip)."""
    scaled = x * 10 ** 6
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    sign = "-" if n < 0 and q > 0 else ""
    return f"{sign}{q // 10 ** 6}.{q % 10 ** 6:06d}"


# a str.translate table; xml.sax.saxutils would import urllib.request
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          '"': "&quot;"})


def _text(s: str) -> str:
    """s escaped for an attribute value or character data: & < > and "."""
    return s.translate(_ESCAPES)


def _tag(name: str, attrs: Dict[str, str], body: str = "") -> str:
    """An element; attribute values are escaped, the body is markup.  A
    scene's style values reach here as any JSON value."""
    parts = "".join(f' {k}="{_text(str(v))}"' for k, v in sorted(attrs.items()))
    if body:
        return f"<{name}{parts}>{body}</{name}>"
    return f"<{name}{parts}/>"


SIZE = 480  # rendered square, user units
PAD = Fraction(1, 20)  # viewport margin as a fraction of the span


def render_svg(scene: Scene) -> bytes:
    """A standalone SVG 1.1 document; byte-identical for identical scenes."""
    cfg = scene.config
    if len(cfg.labels) == 0:
        raise EmptyScene("nothing to draw")
    if scene.viewport is not None:
        xmin, ymin, xmax, ymax = scene.viewport
        if xmax <= xmin or ymax <= ymin:
            raise MalformedScene("degenerate viewport")
    else:
        xs = [cfg.point(l).x for l in cfg.labels]
        ys = [cfg.point(l).y for l in cfg.labels]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin, Fraction(1))
        xmin, xmax = xmin - PAD * span, xmax + PAD * span
        ymin, ymax = ymin - PAD * span, ymax + PAD * span
    span = max(xmax - xmin, ymax - ymin)
    scale = Fraction(SIZE) / span

    def sx(x: Fraction) -> str:
        return _dec6((x - xmin) * scale)

    def sy(y: Fraction) -> str:
        return _dec6((ymax - y) * scale)  # flip: SVG y grows downward

    def at(label: str) -> Tuple[str, str]:
        p = cfg.point(label)
        return sx(p.x), sy(p.y)

    stroke = scene.style.get("stroke", "#1f3a5f")
    fill = scene.style.get("fill", "#d33682")
    elements: List[str] = []

    for ov in scene.overlays:
        if ov.kind == "triangulation":
            for cell in sorted(tuple(c) for c in ov.cells):
                ring = convex_hull(cfg.subconfig(list(cell)))
                pts = " ".join(",".join(at(l)) for l in ring)
                elements.append(_tag("polygon", {
                    "class": "cell", "fill": "none", "points": pts,
                    "stroke": stroke, "stroke-width": "1.5"}))
        elif ov.kind == "hull":
            ring = convex_hull(cfg)
            pts = " ".join(",".join(at(l)) for l in ring)
            elements.append(_tag("polygon", {
                "class": "hull", "fill": "none", "points": pts,
                "stroke": stroke, "stroke-dasharray": "6 3",
                "stroke-width": "1"}))
        elif ov.kind == "path":
            pts = " ".join(",".join(at(l)) for l in ov.vertices)
            elements.append(_tag("polyline", {
                "class": "convex-path", "fill": "none", "points": pts,
                "stroke": fill, "stroke-width": "2.5"}))
        elif ov.kind == "rays":
            cx = sum((cfg.point(l).x for l in cfg.labels), Fraction(0)) \
                / len(cfg.labels)
            cy = sum((cfg.point(l).y for l in cfg.labels), Fraction(0)) \
                / len(cfg.labels)
            reach = span / 2
            rays = ov.rays
            if not rays:
                from .infrared import stokes_rays
                rays = stokes_rays(cfg)
            for ray in rays:
                dx, dy = ray.vec()
                norm = max(abs(dx), abs(dy))
                ex = cx + Fraction(dx, norm) * reach
                ey = cy + Fraction(dy, norm) * reach
                elements.append(_tag("line", {
                    "class": "ray", "stroke": "#888888",
                    "stroke-width": "0.75",
                    "x1": sx(cx), "x2": sx(ex),
                    "y1": sy(cy), "y2": sy(ey)}))
        else:
            raise ValueError(f"unknown overlay kind: {ov.kind!r}")

    for label in cfg.labels:
        x, y = at(label)
        elements.append(_tag("circle", {
            "class": "point", "cx": x, "cy": y, "fill": fill, "r": "4"}))
        elements.append(_tag("text", {
            "class": "label", "font-family": "sans-serif", "font-size": "12",
            "x": x, "y": y}, _text(f" {label}")))

    body = "\n  ".join(elements)
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + _tag("svg", {
            "baseProfile": "full",
            "height": str(SIZE),
            "version": "1.1",
            "viewBox": f"0 0 {SIZE} {SIZE}",
            "width": str(SIZE),
            "xmlns": "http://www.w3.org/2000/svg",
        }, "\n  " + body + "\n")
        + "\n"
    )
    return doc.encode("utf-8")
