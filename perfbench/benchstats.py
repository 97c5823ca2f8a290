"""The benchmark's arithmetic, kept free of I/O so test_benchstats.py can
pin it: percentiles and the sample-count rule, quiet windows,
Prometheus exposition parsing and before/after diffs, span self time and
edition coverage, and the machine-block comparison."""

import math
import re

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank percentile (0 < q < 1) of unsorted `values`; failed
    requests are passed as math.inf so they count as over any limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supports_percentile(n, q):
    """True when `n` samples leave at least MIN_TAIL_SAMPLES beyond the
    q-th percentile."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9


def latency_percentiles(latencies):
    """(p50, p99, samples) of one window's latencies; raises when too few
    samples lie beyond the p99."""
    if not supports_percentile(len(latencies), 0.99):
        raise ValueError(f"{len(latencies)} samples do not support p99")
    return (percentile(latencies, 0.50), percentile(latencies, 0.99),
            len(latencies))


# The generator samples the host every SAMPLE_S seconds of a step; the
# windows are that long.
SAMPLE_S = 0.25


class Window:
    """One SAMPLE_S window of a step: the latencies (ms) of the requests
    due in it, the replies completed in it, and the steal ticks the
    sampled CPUs lost in it."""

    def __init__(self, steal):
        self.latencies = []
        self.done = 0
        self.steal = steal


def split_windows(dues, latencies, samples):
    """A step's requests (due offset in s, latency in ms, inf when it
    failed) in consecutive SAMPLE_S windows. `samples` is the generator's
    flat list of (time, steal ticks, ticks, daemon ticks) taken every
    SAMPLE_S from the step's start; what falls after the last sample is
    left out."""
    rows = [samples[i:i + 4] for i in range(0, len(samples) - 3, 4)]
    windows = [Window(b[1] - a[1]) for a, b in zip(rows, rows[1:])]
    for due, latency in zip(dues, latencies):
        index = int(due // SAMPLE_S)
        if index < len(windows):
            windows[index].latencies.append(latency)
        if math.isfinite(latency):
            index = int((due + latency / 1e3) // SAMPLE_S)
            if index < len(windows):
                windows[index].done += 1
    return windows


def quiet(items, steal, allowed=0):
    """The items that measure the program rather than the host: those
    during which the hypervisor stole at most `allowed` ticks,
    `steal(item)` giving the ticks. When fewer than a quarter of them are
    quiet, the quarter with the least steal stands in, in their original
    order."""
    if not items:
        raise ValueError("nothing to choose from")
    keep = max(1, len(items) // 4)
    chosen = [item for item in items if steal(item) <= allowed]
    if len(chosen) >= keep:
        return chosen
    least = sorted(range(len(items)), key=lambda i: steal(items[i]))
    return [items[i] for i in sorted(least[:keep])]



def window_rate(windows):
    """Replies completed per second over `windows`. A mean, not a median
    of per-window rates: a batch's replies land together, so the
    per-window counts of a slow workload are multiples of its batch and
    their median moves in steps of a batch."""
    return sum(w.done for w in windows) / (len(windows) * SAMPLE_S)


# --- Prometheus text exposition -------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """{(name, frozenset(labels.items())): value} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        labels = frozenset(_LABEL.findall(match.group(3) or ""))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def tenant_generations(samples):
    """{tenant: generation} from srpp_tenant_info."""
    out = {}
    for (name, labels), _ in samples.items():
        if name == "srpp_tenant_info":
            label = dict(labels)
            out[label["tenant"]] = int(label["generation"])
    return out


# Counters the daemon resets when a tenant's generation is replaced.
GENERATION_COUNTERS = {
    "srpp_rows_computed_total",
    "srpp_row_cache_hits_total",
    "srpp_row_cache_misses_total",
    "srpp_row_cache_evictions_total",
}


def diff_samples(before, after):
    """after - before per series. A series that went backwards, or a
    current-generation counter whose tenant changed generation, restarted
    in between: its increase is counted as its whole after value (a lower
    bound, as Prometheus' increase() does)."""
    gen_before = tenant_generations(before)
    gen_after = tenant_generations(after)
    delta = {}
    for key, value in after.items():
        name, labels = key
        tenant = dict(labels).get("tenant")
        restarted = (name in GENERATION_COUNTERS and tenant is not None and
                     gen_before.get(tenant) != gen_after.get(tenant))
        old = before.get(key, 0.0)
        delta[key] = value if restarted or value < old else value - old
    return delta


def family_total(delta, name, **match):
    """Sum of a family's series whose labels include `match`."""
    total = 0.0
    for (series, labels), value in delta.items():
        if series != name:
            continue
        label = dict(labels)
        if all(label.get(k) == v for k, v in match.items()):
            total += value
    return total


def stage_means_us(delta):
    """{stage: mean microseconds} from srpp_stage_duration_seconds."""
    stages = {}
    for (series, labels), _ in delta.items():
        if series == "srpp_stage_duration_seconds_count":
            stages[dict(labels)["stage"]] = None
    out = {}
    for stage in stages:
        count = family_total(delta, "srpp_stage_duration_seconds_count",
                             stage=stage)
        total = family_total(delta, "srpp_stage_duration_seconds_sum",
                             stage=stage)
        out[stage] = total / count * 1e6 if count else 0.0
    return out


def ratio(numerator, denominator):
    """numerator / denominator, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


# --- spans ---------------------------------------------------------------

def self_time(span, children):
    """span duration minus the part of it its children cover (overlaps
    among children counted once, parts outside the span ignored)."""
    start, end = span
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    covered = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        covered += e - max(s, cursor)
        cursor = e
    return (end - start) - covered


def coverage(span, children):
    """Share of a span's duration that its children's durations add up to."""
    start, end = span
    return sum(e - s for s, e in children) / (end - start)


# --- machine block -------------------------------------------------------

MACHINE_KEYS = ("nproc", "cpu_model", "simd_level", "compiler", "build_type",
                "kernel")


def machines_comparable(a, b):
    """Two results compare only when every machine-block field agrees."""
    return all(a.get(k) == b.get(k) for k in MACHINE_KEYS)
