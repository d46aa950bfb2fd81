"""Spans around ballratio's public functions, recorded from outside.

`install` wraps each function in TRACED and puts the wrapper in every
ballratio module that holds the original under any name, so calls made
through an imported name (analysis.eval_bound, cli.v_exact, ...) are
recorded too. Each call leaves one span: function, the span that was open
when it started, start and end. Spans stay in memory until `write` puts
them in a file; `self_times` turns a span file into calls and self time
per function, self time being the span's duration minus that of its
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, qualified name) of every traced function.
TRACED: tuple[tuple[str, str], ...] = (
    ("ballvol", "omega_exact"),
    ("ballvol", "v_exact"),
    ("ballvol", "w_exact"),
    ("ballvol", "ExactBallValue.to_real"),
    ("ballvol", "ExactBallValue.compare_to_fraction"),
    ("ballvol", "v_product"),
    ("ballvol", "w_product"),
    ("gautschi", "joint_factor_truncate"),
    ("gautschi", "joint_factor_result"),
    ("gautschi", "gautschi_ratio"),
    ("specfun", "digamma_parts"),
    ("specfun", "digamma_diff"),
    ("specfun", "trigamma_closed"),
    ("specfun", "digamma_series"),
    ("bounds", "eval_bound"),
    ("bounds", "eval_bound_mp"),
    ("bounds", "f_m_exact"),
    ("bounds", "sigma_m"),
    ("bounds", "s_m"),
    ("bounds", "w_trunc_exact"),
    ("analysis", "verify_bounds"),
    ("analysis", "exact_target"),
    ("analysis", "klein_rota_check"),
    ("analysis", "crossover"),
    ("analysis", "make_table"),
    ("analysis", "product_overtake_index"),
    ("analysis", "partials_below_upper_cap"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)

_MODULES = ("ballratio", "ballratio.analysis", "ballratio.ballvol", "ballratio.bounds",
            "ballratio.cli", "ballratio.gautschi", "ballratio.specfun")


class Tracer:
    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, fid: int, func):
        fn, parent, start, end, open_ = self.fn, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(name) for name in _MODULES]
        for fid, (mod, qual) in enumerate(TRACED):
            owner = importlib.import_module(f"ballratio.{mod}")
            cls_name, _, meth = qual.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(fid, getattr(cls, meth)))
                continue
            original = getattr(owner, qual)
            wrapper = self.wrap(fid, original)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": NAMES, "spans": len(self.fn)}).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(path) -> dict[str, tuple[int, float]]:
    """{function: (calls, self seconds)} from a span file written by Tracer."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        count = head["spans"]
        arrays = [array(code) for code in "iidd"]
        for arr in arrays:
            arr.fromfile(fh, count)
    fn, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    self_s = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            self_s[p] -= dur[i]
    out = {name: [0, 0.0] for name in head["names"]}
    for fid, s in zip(fn, self_s):
        entry = out[head["names"][fid]]
        entry[0] += 1
        entry[1] += s
    return {name: (calls, secs) for name, (calls, secs) in out.items()}
