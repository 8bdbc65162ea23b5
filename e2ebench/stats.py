"""Order statistics, bounds and name rules shared by the benchmark scripts."""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    med = median(values)
    if med == 0:
        raise ValueError("spread of values with a zero median")
    return (q3 - q1) / abs(med)


def worsening(parent, child, better):
    """How much worse `child` is than `parent`, as a share of `parent`.

    Positive means worse: higher for a lower-is-better metric, lower for a
    higher-is-better one.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if parent == 0:
        raise ValueError("worsening against a zero parent")
    delta = (child - parent) / abs(parent)
    return delta if better == "lower" else -delta


def within_bound(parent, child, better, bound):
    """True when `child` is worse than `parent` by no more than `bound`."""
    return worsening(parent, child, better) <= bound


def valid_name(name):
    return isinstance(name, str) and bool(NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


def check_spec(spec):
    """Problems with a BENCHMARK.json document (an empty list when none)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    seen = set()

    def name_ok(kind, name):
        if not valid_name(name):
            problems.append(f"{kind} name {name!r} is not valid")
        if name in seen:
            problems.append(f"{kind} name {name!r} is used twice")
        seen.add(name)

    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
        name_ok("workload", w.get("name"))
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {w.get('name')!r}: why must be one line of 1-200 chars")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end metric keys {sorted(m)}")
        name_ok("metric", m.get("name"))
        if not valid_unit(m.get("unit")):
            problems.append(f"unit {m.get('unit')!r} is not valid")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"{m.get('name')}: better must be lower or higher")
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"{m.get('name')}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (unit s, better lower) is required")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric keys {sorted(m)}")
        name_ok("metric", m.get("name"))
        if not valid_unit(m.get("unit")):
            problems.append(f"unit {m.get('unit')!r} is not valid")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"{m.get('name')}: better must be lower or higher")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    return problems
