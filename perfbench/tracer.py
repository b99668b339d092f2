"""Outside-in span tracer for the arakgrid benchmark.

The tracer wraps public functions of the package from the outside: each one
is replaced in its defining module and in every ``arakgrid`` module that
re-bound it with ``from .x import y``, so inner calls also pass through the
wrapper.  Methods and classmethods are patched on their class.  Spans (name,
start, end, parent) stay in memory until the run writes them out.

Self time is a span's duration minus the time its wrapped children cover.
Input hashing for ``distinct_ratio`` happens outside the timed interval and
is excluded from every span's self time.
"""

import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, qualified name) of every traced public function
TARGETS = (
    ("scene", "parse_scene"),
    ("scene", "Scene.region"),
    ("scene", "Scene.raster"),
    ("grid", "rasterize_closed"),
    ("grid", "distance_field"),
    ("topology", "custom_region"),
    ("topology", "label_components"),
    ("topology", "holes"),
    ("topology", "RegionModel.boundary_distance"),
    ("topology", "compactified_complement_connected"),
    ("topology", "sphere_complement_connected"),
    ("arakelian", "build_exhaustion"),
    ("arakelian", "check_arakelian"),
    ("arakelian", "hole_union_extent"),
    ("arakelian", "alpha_neighborhood"),
    ("builder", "disk_cover"),
    ("builder", "escape_curves"),
    ("builder", "build_v"),
    ("builder", "refute_witness"),
    ("builder", "disjoint_union_v"),
    ("loglift", "SampledFunction.from_callable"),
    ("loglift", "tietze_extend"),
    ("loglift", "log_lift"),
    ("render", "render_svg"),
    ("render", "render_ppm"),
    ("cli", "run_cli"),
)

# functions whose inputs are hashed for distinct_ratio
HASHED = {"grid.distance_field", "topology.label_components",
          "topology.RegionModel.boundary_distance"}


def _count(obj) -> int:
    return int(obj.count())


# work counters: span name -> (counter name, fn(args, result) -> number)
COUNTERS = {
    "grid.rasterize_closed": (("cells", lambda a, r: _count(r)),),
    "topology.label_components": (("cells", lambda a, r: _count(a[0])),),
    "builder.disk_cover": (("disks", lambda a, r: len(r.disks)),),
    "builder.escape_curves": (
        ("curves", lambda a, r: len(r.curves)),
        ("path_cells", lambda a, r: sum(len(c.path) for c in r.curves))),
    "loglift.log_lift": (("v_cells", lambda a, r: _count(r.neighborhood.v)),),
    "render.render_svg": (("bytes", lambda a, r: len(r)),),
    "render.render_ppm": (("bytes", lambda a, r: len(r)),),
}

# per-layer metric list: (metric name, unit)
STAGES_MS_CALLS = [f"{m}.{q}" for m, q in TARGETS
                   if (m, q) not in (("loglift", "SampledFunction.from_callable"),
                                     ("render", "render_svg"),
                                     ("render", "render_ppm"))]
GROWTH_STAGES = ("grid.rasterize_closed", "topology.label_components",
                 "arakelian.build_exhaustion", "builder.disk_cover",
                 "builder.escape_curves", "loglift.tietze_extend",
                 "loglift.log_lift")
GROWTH_COMMANDS = ("check", "build_v", "union", "loglift")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in STAGES_MS_CALLS:
        out += [(f"{name}.ms", "ms"), (f"{name}.calls", "count")]
        for counter, _ in COUNTERS.get(name, ()):
            out.append((f"{name}.{counter}", "count"))
        if name in HASHED:
            out.append((f"{name}.distinct_ratio", "ratio"))
        if name == "builder.build_v":
            out.append((f"{name}.raised", "count"))
    out += [("loglift.SampledFunction.from_callable.ms", "ms"),
            ("render.render_svg.ms", "ms"), ("render.render_ppm.ms", "ms"),
            ("render.bytes", "bytes")]
    out += [(f"{s}.growth_exp", "exponent") for s in GROWTH_STAGES]
    out += [(f"{c}.growth_exp", "exponent") for c in GROWTH_COMMANDS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _digest_parts(x, h):
    from arakgrid.grid import CellSet
    from arakgrid.topology import RegionModel
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, CellSet):
        h.update(repr(x.grid.key()).encode())
        h.update(x.bits.tobytes())
    elif isinstance(x, RegionModel):
        h.update(repr((x.grid.key(), sorted(x.declared_edges))).encode())
        h.update(x.omega.bits.tobytes())
        h.update(x.alpha_border.tobytes())
    else:
        h.update(repr(x).encode())


def input_digest(args, kwargs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in args:
        _digest_parts(a, h)
    for k in sorted(kwargs):
        h.update(k.encode())
        _digest_parts(kwargs[k], h)
    return h.hexdigest()


@dataclass
class Span:
    name: str
    parent: int            # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    outer: float = 0.0     # full interval incl. hashing, charged to the parent
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``enabled``; patches and restores the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name, **attrs) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        sp = self.spans[idx]
        sp.end = time.perf_counter()
        sp.outer = sp.end - sp.start
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        counters = COUNTERS.get(name, ())
        hashed = name in HASHED

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_pre = time.perf_counter()
            digest = input_digest(args, kwargs) if hashed else None
            idx = tracer.open(name)
            sp = tracer.spans[idx]
            raised = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                sp.end = time.perf_counter()
                tracer.stack.pop()
                if digest is not None:
                    sp.attrs["digest"] = digest
                if raised:
                    sp.attrs["raised"] = 1
                else:
                    for cname, cfn in counters:
                        sp.attrs[cname] = cfn(args, result)
                sp.outer = time.perf_counter() - t_pre
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ------------------------------------------------------
    def install(self):
        """Patch every target in all loaded ``arakgrid`` modules."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "arakgrid" or n.startswith("arakgrid.")}
        for modname, qual in TARGETS:
            mod = mods[f"arakgrid.{modname}"]
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(name, orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for k, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": sp.name,
                                     "parent": sp.parent, "start": sp.start,
                                     "end": sp.end, **sp.attrs}) + "\n")


# -- analysis ---------------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.outer
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def _op_reps(spans: list[Span]):
    """Stats of the wrapped spans under each ``op`` span.

    Returns (reps, digests): ``reps`` maps op name -> list of per-execution
    dicts {stage: {"ms", "calls", counters...}} plus {"step:<command>": ms};
    ``digests`` maps stage -> its input digests over the first traced pass,
    which runs every operation once.
    """
    selfs = self_times(spans)
    op_of = [-1] * len(spans)
    pass_of = [-1] * len(spans)
    per_exec: dict[int, dict] = {}
    first_pass = next(k for k, sp in enumerate(spans) if sp.name == "pass")
    digests: dict[str, list[str]] = {}
    for k, sp in enumerate(spans):        # parents precede their children
        p = sp.parent
        pass_of[k] = k if sp.name == "pass" else pass_of[p]
        op_of[k] = k if sp.name == "op" else (op_of[p] if p >= 0 else -1)
        if sp.name == "op":
            per_exec[k] = {}
            continue
        if sp.name == "pass" or op_of[k] < 0:
            continue
        acc = per_exec[op_of[k]]
        if sp.name == "step":
            key = f"step:{sp.attrs['command']}"
            acc[key] = acc.get(key, 0.0) + (sp.end - sp.start) * 1000.0
            continue
        st = acc.setdefault(sp.name, {"ms": 0.0, "calls": 0})
        st["ms"] += selfs[k] * 1000.0
        st["calls"] += 1
        for key, val in sp.attrs.items():
            if key != "digest":
                st[key] = st.get(key, 0) + val
        if "digest" in sp.attrs and pass_of[k] == first_pass:
            digests.setdefault(sp.name, []).append(sp.attrs["digest"])
    reps: dict[str, list[dict]] = {}
    for k, acc in per_exec.items():
        reps.setdefault(spans[k].attrs["op"], []).append(acc)
    return reps, digests


def _sum_of_medians(reps, fn) -> float:
    """Sum over operations of the median over their executions, the
    statistic ``run.Runner.summary`` uses for end-to-end times."""
    return sum(statistics.median(fn(acc) for acc in accs)
               for accs in reps.values())


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics per pass: sums over the operation list of each
    operation's median self ms, calls and counters over its executions;
    distinct ratios over the first traced pass."""
    reps, digests = _op_reps(spans)
    out = {}
    for name, unit in per_layer_names():
        if name.endswith(".growth_exp") or name == "trace.overhead_ratio":
            continue
        if name == "render.bytes":
            out[name] = _sum_of_medians(reps, lambda a: sum(
                a.get(f"render.{f}", {}).get("bytes", 0)
                for f in ("render_svg", "render_ppm")))
            continue
        stage, stat = name.rsplit(".", 1)
        if stat == "distinct_ratio":
            seen = digests.get(stage, [])
            out[name] = len(set(seen)) / len(seen) if seen else 0.0
            continue
        out[name] = _sum_of_medians(
            reps, lambda a, stage=stage, stat=stat: a.get(stage, {}).get(stat, 0))
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log y on log x over the positive points;
    0.0 with fewer than two."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    xs, ys = np.array(pts).T
    dx = xs - xs.mean()
    return float((dx * (ys - ys.mean())).sum() / (dx * dx).sum())


def growth_metrics(spans: list[Span]) -> dict:
    """Growth exponents against the cell count, over the scene family in
    which the stage or command spends the most time (other families, such
    as the obstacle-free lift for escape curves, would only dilute the fit).
    Stage self ms and command ms are each the median over an operation's
    executions, summed per (family, cell count)."""
    reps, _ = _op_reps(spans)
    meta = {sp.attrs["op"]: (sp.attrs["family"], sp.attrs["cells"])
            for sp in spans if sp.name == "op"}
    out = {}
    for name in GROWTH_STAGES + GROWTH_COMMANDS:
        key = f"step:{name}" if name in GROWTH_COMMANDS else name
        pts: dict = {}
        for op, accs in reps.items():
            fam, cells = meta[op]
            if fam is None:
                continue
            if key.startswith("step:"):
                ms = statistics.median(a.get(key, 0.0) for a in accs)
            else:
                ms = statistics.median(a.get(key, {}).get("ms", 0.0)
                                       for a in accs)
            pts[(fam, cells)] = pts.get((fam, cells), 0.0) + ms
        fams: dict = {}
        for (fam, cells), ms in pts.items():
            fams.setdefault(fam, []).append((cells, ms))
        top = max(fams.values(), key=lambda p: sum(ms for _, ms in p),
                  default=[])
        out[f"{name}.growth_exp"] = loglog_slope(top)
    return out
