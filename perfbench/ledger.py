"""Per-layer ledger for perfbench: folds a gprof flat profile by module and
combines it with the driver's exact counters and host-time replays.

Self-time shares come from gprof's 10 ms samples and are approximate; call
counts come from -pg's mcount hooks and are exact for every function the
compiler did not inline.  A closure is charged to the function that defines
it, so an InlineFunction thunk wrapping a ProxyServer lambda counts as
webstack.proxy, not common.
"""
import re

# (module, class) -> ledger layer; a module alone matches every class.
LAYERS = [
    (("sim", "EventQueue"), "sim.scheduler"),
    (("sim", "Simulator"), "sim.scheduler"),
    (("sim", "Resource"), "sim.resource"),
    (("sim", "SlotPool"), "sim.resource"),
    (("cluster", "Network"), "cluster.network"),
    (("cluster", "LoadBalancer"), "cluster.balancer"),
    (("webstack", "LruCache"), "webstack.lru"),
    (("webstack", "ProxyServer"), "webstack.proxy"),
    (("webstack", "AppServer"), "webstack.app"),
    (("webstack", "DbServer"), "webstack.db"),
    (("webstack", "FrontendRouter"), "webstack.router"),
    (("webstack", "AppTierRouter"), "webstack.router"),
    (("webstack", "DbTierRouter"), "webstack.router"),
    (("tpcw", None), "tpcw.workload"),
    (("ctrl", None), "ctrl"),
    (("obs", None), "obs"),
    (("common", None), "common"),
]

COUNTED_CALLS = {
    "place": "ah::sim::EventQueue::place(",
    "push": "ah::sim::EventQueue::push(",
    "lru_lookup": "ah::webstack::LruCache::lookup(",
}

FLAT_LINE = re.compile(
    r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
    r"(?:(\d+)\s+([\d.]+)\s+([\d.]+)\s+)?(\S.*)$")
QUALIFIED_TAIL = re.compile(r"[A-Za-z0-9_:]+$")
QUALIFIED_HEAD = re.compile(r"[A-Za-z0-9_:]+")


def parse_flat(text):
    """Returns [(self_seconds, calls or None, name)] from `gprof -b -p`."""
    rows = []
    for line in text.splitlines():
        match = FLAT_LINE.match(line)
        if match is None:
            continue
        calls = int(match.group(4)) if match.group(4) else None
        rows.append((float(match.group(3)), calls, match.group(7).strip()))
    return rows


def strip_trailing_call(head):
    """Drops a trailing `(...)` argument list and cv-qualifiers."""
    head = re.sub(r"(\s+(const|volatile|&&|&))+$", "", head)
    while head.endswith(")"):
        depth = 0
        for i in range(len(head) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(head[i], 0)
            if depth == 0:
                head = head[:i]
                break
        else:
            break
    return head


def owner(name):
    """(module, class) of the code a symbol belongs to; closures belong to
    the function that defines them."""
    cut = name.find("::{lambda")
    if cut >= 0:
        match = QUALIFIED_TAIL.search(strip_trailing_call(name[:cut]))
    else:
        match = QUALIFIED_HEAD.match(name)
    parts = match.group(0).split("::") if match else []
    if len(parts) < 2 or parts[0] != "ah":
        return ("other", None)
    return (parts[1], parts[2] if len(parts) > 2 else None)


def layer_of(name):
    module, cls = owner(name)
    for (want_module, want_class), layer in LAYERS:
        if module == want_module and want_class in (None, cls):
            return layer
    return module


def fold(rows):
    """Self-time share per ledger layer and exact counts of COUNTED_CALLS."""
    total = sum(seconds for seconds, _, _ in rows)
    shares = {}
    for seconds, _, name in rows:
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + seconds
    if total > 0:
        shares = {k: v / total for k, v in shares.items()}
    counts = {key: 0 for key in COUNTED_CALLS}
    for _, calls, name in rows:
        for key, prefix in COUNTED_CALLS.items():
            if calls is not None and name.startswith(prefix):
                counts[key] += calls
    return shares, counts


# Driver fields that are simulated results, so identical between the
# untraced and the traced run of the same round.
EXACT_FIELDS = ("events", "attempted", "failed", "requests", "messages",
                "bytes", "proxy_served", "proxy_hits", "db_queries",
                "app_rejections", "completions", "evaluations",
                "iters_to_90", "wips", "p95_ms", "reconfig_moves",
                "digest_fnv1a")


def exact_mismatches(plain, profiled):
    return [f"{key} differs between untraced ({plain[key]}) and traced "
            f"({profiled[key]}) runs"
            for key in EXACT_FIELDS if plain[key] != profiled[key]]


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "core.study_wall_s": ("s", "lower"),
    "core.window_ms": ("ms", "lower"),
    "core.apply_us": ("us", "lower"),
    "core.parallelism": ("ratio", "higher"),
    "core.model_build_ms": ("ms", "lower"),
    "core.reconfig_moves": ("count", "lower"),
    "harmony.us_per_report": ("us", "lower"),
    "harmony.iters_to_90": ("count", "lower"),
    "harmony.evaluations": ("count", "higher"),
    "sim.events_per_request": ("events/request", "lower"),
    "sim.place_per_push": ("ratio", "lower"),
    "sim.scheduler_self_share": ("share", "lower"),
    "sim.resource_self_share": ("share", "lower"),
    "sim.pending_events_max": ("count", "lower"),
    "cluster.messages_per_request": ("messages/request", "lower"),
    "cluster.bytes_per_request": ("bytes/request", "lower"),
    "cluster.network_self_share": ("share", "lower"),
    "cluster.balancer_self_share": ("share", "lower"),
    "cluster.cpu_util_max": ("fraction", "lower"),
    "cluster.disk_util_max": ("fraction", "lower"),
    "cluster.mark_downs": ("count", "lower"),
    "cluster.health_probes": ("count", "lower"),
    "cluster.rss_kib_per_node": ("KiB", "lower"),
    "webstack.proxy_hit_ratio": ("fraction", "higher"),
    "webstack.lru_lookups_per_request": ("lookups/request", "lower"),
    "webstack.lru_self_share": ("share", "lower"),
    "webstack.proxy_self_share": ("share", "lower"),
    "webstack.app_self_share": ("share", "lower"),
    "webstack.db_self_share": ("share", "lower"),
    "webstack.router_self_share": ("share", "lower"),
    "webstack.db_queries_per_request": ("queries/request", "lower"),
    "webstack.app_rejections": ("count", "lower"),
    "webstack.frontend_p95_ms": ("ms", "lower"),
    "webstack.app_hop_p95_ms": ("ms", "lower"),
    "webstack.db_hop_p95_ms": ("ms", "lower"),
    "webstack.stale_served": ("count", "higher"),
    "webstack.router_timeouts": ("count", "lower"),
    "webstack.upstream_retries": ("count", "lower"),
    "tpcw.wips_browse": ("interactions/s", "higher"),
    "tpcw.wips_order": ("interactions/s", "higher"),
    "tpcw.error_ratio": ("fraction", "lower"),
    "tpcw.completions": ("count", "higher"),
    "tpcw.workload_self_share": ("share", "lower"),
    "ctrl.admit_min": ("fraction", "higher"),
    "ctrl.admit_final": ("fraction", "higher"),
    "ctrl.shed_ratio": ("fraction", "lower"),
    "ctrl.stale_share": ("fraction", "higher"),
    "ctrl.self_share": ("share", "lower"),
    "obs.self_share": ("share", "lower"),
    "common.self_share": ("share", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer(plain, profiled, flat_text):
    """Per-layer metrics: host time from the untraced run, exact counts from
    its registry sums, shares and call counts from the traced run."""
    shares, calls = fold(parse_flat(flat_text))
    requests = max(1.0, plain["requests"])
    share = lambda layer: shares.get(layer, 0.0)
    values = {
        "core.study_wall_s": plain["wall_s"],
        "core.window_ms": 1e3 * plain["wall_s"] / plain["attempted"],
        "core.apply_us": plain["apply_us"],
        "core.parallelism": plain["cpu_s"] / plain["wall_s"],
        "core.model_build_ms": plain["model_build_ms"],
        "core.reconfig_moves": plain["reconfig_moves"],
        "harmony.us_per_report": plain["harmony_us_per_report"],
        "harmony.iters_to_90": plain["iters_to_90"],
        "harmony.evaluations": plain["evaluations"],
        "sim.events_per_request": plain["round_events"] / requests,
        "sim.place_per_push": calls["place"] / max(1, calls["push"]),
        "sim.scheduler_self_share": share("sim.scheduler"),
        "sim.resource_self_share": share("sim.resource"),
        "sim.pending_events_max": plain["pending_events_max"],
        "cluster.messages_per_request": plain["messages"] / requests,
        "cluster.bytes_per_request": plain["bytes"] / requests,
        "cluster.network_self_share": share("cluster.network"),
        "cluster.balancer_self_share": share("cluster.balancer"),
        "cluster.cpu_util_max": plain["cpu_util_max"],
        "cluster.disk_util_max": plain["disk_util_max"],
        "cluster.mark_downs": plain["mark_downs"],
        "cluster.health_probes": plain["health_probes"],
        "cluster.rss_kib_per_node": plain["peak_rss_kib"] / plain["nodes"],
        "webstack.proxy_hit_ratio":
            plain["proxy_hits"] / max(1.0, plain["proxy_served"]),
        "webstack.lru_lookups_per_request": calls["lru_lookup"] / requests,
        "webstack.lru_self_share": share("webstack.lru"),
        "webstack.proxy_self_share": share("webstack.proxy"),
        "webstack.app_self_share": share("webstack.app"),
        "webstack.db_self_share": share("webstack.db"),
        "webstack.router_self_share": share("webstack.router"),
        "webstack.db_queries_per_request": plain["db_queries"] / requests,
        "webstack.app_rejections": plain["app_rejections"],
        "webstack.frontend_p95_ms": plain["frontend_p95_ms"],
        "webstack.app_hop_p95_ms": plain["app_hop_p95_ms"],
        "webstack.db_hop_p95_ms": plain["db_hop_p95_ms"],
        "webstack.stale_served": plain["stale_served"],
        "webstack.router_timeouts": plain["router_timeouts"],
        "webstack.upstream_retries": plain["upstream_retries"],
        "tpcw.wips_browse": plain["wips_browse"],
        "tpcw.wips_order": plain["wips_order"],
        "tpcw.error_ratio": plain["error_ratio"],
        "tpcw.completions": plain["completions"],
        "tpcw.workload_self_share": share("tpcw.workload"),
        "ctrl.admit_min": plain["admit_min"],
        "ctrl.admit_final": plain["admit_final"],
        "ctrl.shed_ratio": plain["shed_ratio"],
        "ctrl.stale_share": plain["stale_share"],
        "ctrl.self_share": share("ctrl"),
        "obs.self_share": share("obs"),
        "common.self_share": share("common"),
        "trace.overhead": profiled["cpu_s"] / plain["cpu_s"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
